package store

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
)

type entry struct {
	Name   string
	Count  uint64
	Values []int
}

func sample() *entry {
	return &entry{Name: "gzip", Count: 1 << 40, Values: []int{3, -1, 4}}
}

func TestDiskRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, err := NewDisk[entry](dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get("k"); ok {
		t.Fatal("empty store returned a value")
	}
	want := sample()
	s.Put("k", want)
	// A second store over the same directory reads what the first wrote.
	s2, err := NewDisk[entry](dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := s2.Get("k")
	if !ok || !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip: got %+v, %v; want %+v", got, ok, want)
	}
	des, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(des) != 1 || des[0].Name() != "k.json" {
		t.Errorf("store directory holds %v, want only k.json", des)
	}

	// valid vets every decoded value, and sees the key it was read under.
	var seen string
	picky, err := NewDisk(dir, func(key string, v *entry) bool {
		seen = key
		return v.Name != "gzip"
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := picky.Get("k"); ok || seen != "k" {
		t.Errorf("a value valid rejects was served (valid saw key %q)", seen)
	}
}

// TestConcurrentPutGet has writers replace one key while readers read it:
// a reader sees a miss or a whole value, never a partial entry.
func TestConcurrentPutGet(t *testing.T) {
	disk, err := NewDisk[entry](t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []Store[entry]{NewMem[entry](), disk} {
		want := sample()
		var wg sync.WaitGroup
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 50; i++ {
					if w%2 == 0 {
						s.Put("k", sample())
					} else if got, ok := s.Get("k"); ok && !reflect.DeepEqual(got, want) {
						t.Errorf("%T: read %+v, want %+v", s, got, want)
						return
					}
				}
			}()
		}
		wg.Wait()
		if _, ok := s.Get("k"); !ok {
			t.Errorf("%T: no value after the writers finished", s)
		}
	}
}

// TestDiskEveryByteChangeIsAMiss changes each byte of a stored entry, in
// the digest line, the separator and the body, to every other value: each
// change must read as a miss.
func TestDiskEveryByteChangeIsAMiss(t *testing.T) {
	dir := t.TempDir()
	s, err := NewDisk[entry](dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	s.Put("k", sample())
	b, err := os.ReadFile(filepath.Join(dir, "k.json"))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s.decode("k", b); !ok {
		t.Fatal("the intact entry did not decode")
	}
	changed := make([]byte, len(b))
	for i := range b {
		for d := 1; d < 256; d++ {
			copy(changed, b)
			changed[i] += byte(d)
			if v, ok := s.decode("k", changed); ok {
				t.Fatalf("byte %d changed %q -> %q was served: %+v", i, b[i], changed[i], v)
			}
		}
	}
	t.Logf("%d one-byte changes of a %d-byte entry, all misses", 255*len(b), len(b))
}

// TestDiskBareJSONIsAMiss pins that an entry in the format without a
// digest line (bare JSON, as stores wrote before the digest) is a miss,
// and that Put replaces it.
func TestDiskBareJSONIsAMiss(t *testing.T) {
	dir := t.TempDir()
	s, err := NewDisk[entry](dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	bare, err := json.Marshal(sample())
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "k.json"), bare, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get("k"); ok {
		t.Error("a bare-JSON entry was served")
	}
	s.Put("k", sample())
	if _, ok := s.Get("k"); !ok {
		t.Error("Put did not replace the bare-JSON entry")
	}
}
