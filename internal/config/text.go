package config

import (
	"fmt"
	"strconv"
	"strings"
)

// This file holds the text codecs shared by the enums' String and
// MarshalText/UnmarshalText methods and by the field registry's parsers.

// enumNames is one enum's name table, indexed by value: each entry lists the
// value's String form first, then the aliases parsing also accepts. Parsing
// ignores case.
type enumNames[E ~uint8] struct {
	kind  string // what the enum selects, for error messages
	names [][]string
}

// name returns v's String form.
func (t *enumNames[E]) name(v E) string {
	if int(v) < len(t.names) {
		return t.names[v][0]
	}
	return fmt.Sprintf("%s(%d)", t.kind, uint8(v))
}

// parse returns the value one of whose names is s.
func (t *enumNames[E]) parse(s string) (E, error) {
	for v, names := range t.names {
		for _, n := range names {
			if strings.EqualFold(s, n) {
				return E(v), nil
			}
		}
	}
	return 0, fmt.Errorf("config: unknown %s %q (want %s)", t.kind, s, t.list())
}

// unmarshal parses b into *v.
func (t *enumNames[E]) unmarshal(v *E, b []byte) error {
	x, err := t.parse(string(b))
	if err == nil {
		*v = x
	}
	return err
}

// list joins the String forms for error messages and registry docs.
func (t *enumNames[E]) list() string {
	first := make([]string, len(t.names))
	for i, n := range t.names {
		first[i] = n[0]
	}
	return strings.Join(first, " | ")
}

// ParseSize parses a byte size with an optional K/M/G suffix ("32K", "2M",
// "4096"). The suffixes are binary (K = 1024).
func ParseSize(s string) (int, error) {
	t := strings.TrimSpace(strings.ToUpper(s))
	if len(t) > 1 && strings.HasSuffix(t, "B") {
		t = strings.TrimSuffix(t, "B")
	}
	mult := 1
	switch {
	case strings.HasSuffix(t, "G"):
		mult, t = 1<<30, strings.TrimSuffix(t, "G")
	case strings.HasSuffix(t, "M"):
		mult, t = 1<<20, strings.TrimSuffix(t, "M")
	case strings.HasSuffix(t, "K"):
		mult, t = 1<<10, strings.TrimSuffix(t, "K")
	}
	n, err := strconv.Atoi(t)
	if err != nil {
		return 0, fmt.Errorf("config: bad size %q: %v", s, err)
	}
	return n * mult, nil
}

// parseBool parses a flexible boolean ("true", "1", "on", "yes", ...).
func parseBool(s string) (bool, error) {
	switch strings.ToLower(s) {
	case "true", "1", "on", "yes":
		return true, nil
	case "false", "0", "off", "no":
		return false, nil
	}
	return false, fmt.Errorf("config: bad boolean %q", s)
}
