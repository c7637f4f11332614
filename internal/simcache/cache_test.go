package simcache

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

func open(t *testing.T, dir string, opts Options) *Cache {
	t.Helper()
	c, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return c
}

func mustKey(t *testing.T, parts ...any) string {
	t.Helper()
	k, err := Key(parts...)
	if err != nil {
		t.Fatalf("Key: %v", err)
	}
	return k
}

func TestPutGetRoundTrip(t *testing.T) {
	c := open(t, t.TempDir(), Options{})
	key := mustKey(t, "config", 1)
	payload := []byte(`{"cycles":12345}`)
	if err := c.Put(key, payload); err != nil {
		t.Fatalf("Put: %v", err)
	}
	got, ok, err := c.Get(key)
	if err != nil || !ok {
		t.Fatalf("Get: ok=%v err=%v", ok, err)
	}
	if string(got) != string(payload) {
		t.Fatalf("payload mismatch: %q != %q", got, payload)
	}
	if _, ok, _ := c.Get(mustKey(t, "config", 2)); ok {
		t.Fatal("unexpected hit for absent key")
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Puts != 1 {
		t.Fatalf("stats = %+v, want 1 hit, 1 miss, 1 put", st)
	}
}

func TestPersistenceAcrossOpens(t *testing.T) {
	dir := t.TempDir()
	key := mustKey(t, "persist")
	c := open(t, dir, Options{})
	if err := c.Put(key, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	c2 := open(t, dir, Options{})
	got, ok, err := c2.Get(key)
	if err != nil || !ok || string(got) != "hello" {
		t.Fatalf("reopened Get = %q, %v, %v", got, ok, err)
	}
}

func TestCorruptPayloadIsAMiss(t *testing.T) {
	dir := t.TempDir()
	c := open(t, dir, Options{})
	key := mustKey(t, "x")
	if err := c.Put(key, []byte("payload-v1")); err != nil {
		t.Fatal(err)
	}
	// Flip bytes behind the cache's back.
	path := c.objectPath(key)
	if err := os.WriteFile(path, []byte("tampered!!"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := c.Get(key); ok || err != nil {
		t.Fatalf("tampered Get = ok=%v err=%v, want miss", ok, err)
	}
	if st := c.Stats(); st.Corrupt != 1 {
		t.Fatalf("Corrupt = %d, want 1", st.Corrupt)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("corrupt object not removed: %v", err)
	}
}

func TestIndexRebuildFromObjects(t *testing.T) {
	dir := t.TempDir()
	c := open(t, dir, Options{})
	key := mustKey(t, "rebuild")
	if err := c.Put(key, []byte("still-here")); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash that lost the index but kept the object.
	if err := os.Remove(filepath.Join(dir, "index.json")); err != nil {
		t.Fatal(err)
	}
	c2 := open(t, dir, Options{})
	got, ok, err := c2.Get(key)
	if err != nil || !ok || string(got) != "still-here" {
		t.Fatalf("rebuilt Get = %q, %v, %v", got, ok, err)
	}
}

func TestLRUEviction(t *testing.T) {
	dir := t.TempDir()
	// Each payload is 10 bytes; cap at 25 keeps two entries.
	c := open(t, dir, Options{MaxBytes: 25})
	keys := make([]string, 3)
	for i := range keys {
		keys[i] = mustKey(t, "entry", i)
		if err := c.Put(keys[i], []byte(fmt.Sprintf("payload-%02d", i))); err != nil {
			t.Fatal(err)
		}
	}
	// Entry 0 is the least recently used and must be gone.
	if _, ok, _ := c.Get(keys[0]); ok {
		t.Fatal("LRU entry survived eviction")
	}
	for _, k := range keys[1:] {
		if _, ok, _ := c.Get(k); !ok {
			t.Fatalf("recent entry %s evicted", k[:8])
		}
	}
	if st := c.Stats(); st.Evictions != 1 {
		t.Fatalf("Evictions = %d, want 1", st.Evictions)
	}
	// A Get refreshes LRU position: touch entry 1, put entry 3, entry 2
	// must be the victim.
	if _, ok, _ := c.Get(keys[1]); !ok {
		t.Fatal("entry 1 missing")
	}
	k3 := mustKey(t, "entry", 3)
	if err := c.Put(k3, []byte("payload-03")); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := c.Get(keys[2]); ok {
		t.Fatal("entry 2 should have been evicted after entry 1 was touched")
	}
	if _, ok, _ := c.Get(keys[1]); !ok {
		t.Fatal("touched entry 1 evicted")
	}
}

func TestConcurrentPutGet(t *testing.T) {
	c := open(t, t.TempDir(), Options{})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				key := mustKey(t, "conc", g, i)
				payload := []byte(fmt.Sprintf("g%d-i%d", g, i))
				if err := c.Put(key, payload); err != nil {
					t.Errorf("Put: %v", err)
					return
				}
				got, ok, err := c.Get(key)
				if err != nil || !ok || string(got) != string(payload) {
					t.Errorf("Get after Put = %q, %v, %v", got, ok, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestConcurrentGetPutEvict races hits, misses, puts and LRU evictions
// on a small key set under a byte cap that holds only a few entries.
// Run it under -race: GetLocal reads and hashes objects outside the
// cache lock, so this is where a missed lock would show. Every hit
// must return its key's payload, and since a key's payload never
// changes no read may be booked as corrupt.
func TestConcurrentGetPutEvict(t *testing.T) {
	const (
		keys    = 12
		workers = 6
		rounds  = 150
	)
	payload := func(k int) []byte { return []byte(fmt.Sprintf("payload-%02d-%s", k, strings.Repeat("x", 64))) }
	keyOf := make([]string, keys)
	for k := range keyOf {
		keyOf[k] = mustKey(t, "evict", k)
	}
	// Room for three payloads, so most puts evict.
	c := open(t, t.TempDir(), Options{MaxBytes: int64(3 * len(payload(0)))})

	var gets sync.WaitGroup
	var mu sync.Mutex
	calls := 0
	for w := 0; w < workers; w++ {
		gets.Add(1)
		go func(w int) {
			defer gets.Done()
			for i := 0; i < rounds; i++ {
				k := (w*7 + i*5) % keys
				if i%3 == 0 {
					if err := c.Put(keyOf[k], payload(k)); err != nil {
						t.Errorf("Put: %v", err)
						return
					}
					continue
				}
				got, ok, err := c.GetLocal(keyOf[k])
				mu.Lock()
				calls++
				mu.Unlock()
				if err != nil {
					t.Errorf("GetLocal: %v", err)
					return
				}
				if ok && string(got) != string(payload(k)) {
					t.Errorf("GetLocal(%d) = %q, want %q", k, got, payload(k))
					return
				}
			}
		}(w)
	}
	gets.Wait()

	st := c.Stats()
	if st.Hits+st.Misses != uint64(calls) {
		t.Errorf("hits %d + misses %d != %d gets", st.Hits, st.Misses, calls)
	}
	if st.Corrupt != 0 {
		t.Errorf("Corrupt = %d, want 0: a raced read was booked as corruption", st.Corrupt)
	}
	if st.Evictions == 0 || st.Hits == 0 {
		t.Errorf("stats %+v: want both evictions and hits", st)
	}
	if max := int64(3 * len(payload(0))); c.Size() > max {
		t.Errorf("Size = %d, over the %d cap", c.Size(), max)
	}
}

func TestGetJSONPutJSON(t *testing.T) {
	c := open(t, t.TempDir(), Options{})
	type rec struct {
		Name   string
		Cycles uint64
	}
	key := mustKey(t, "json")
	want := rec{Name: "MVT", Cycles: 42}
	if _, err := c.PutJSON(key, want); err != nil {
		t.Fatal(err)
	}
	var got rec
	ok, err := c.GetJSON(key, &got)
	if err != nil || !ok || got != want {
		t.Fatalf("GetJSON = %+v, %v, %v", got, ok, err)
	}
}

// TestKillMidWrite SIGKILLs a child process in the middle of writing a
// large cache entry and verifies the store is uncorrupted: the key is a
// clean miss (no partial object is ever visible) and previously stored
// entries still verify. This is the crash-safety contract atomic
// temp-file-plus-rename writes exist to provide.
func TestKillMidWrite(t *testing.T) {
	if os.Getenv("SIMCACHE_CRASH_HELPER") == "1" {
		crashHelperMain()
		return
	}
	dir := t.TempDir()
	// Seed one good entry the crash must not damage.
	c := open(t, dir, Options{})
	goodKey := mustKey(t, "survivor")
	if err := c.Put(goodKey, []byte("intact")); err != nil {
		t.Fatal(err)
	}
	c.Close()

	exe, err := os.Executable()
	if err != nil {
		t.Skipf("no executable path: %v", err)
	}
	cmd := exec.Command(exe, "-test.run", "TestKillMidWrite")
	cmd.Env = append(os.Environ(), "SIMCACHE_CRASH_HELPER=1", "SIMCACHE_CRASH_DIR="+dir)
	if err := cmd.Start(); err != nil {
		t.Fatalf("starting helper: %v", err)
	}
	// Wait for the helper's in-flight temp file to appear, then kill it
	// mid-write.
	objects := filepath.Join(dir, "objects")
	deadline := time.Now().Add(10 * time.Second)
	for {
		if time.Now().After(deadline) {
			cmd.Process.Kill()
			cmd.Wait()
			t.Fatal("helper never started writing")
		}
		if hasTempFile(objects) {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	cmd.Process.Kill()
	cmd.Wait()

	// Reopen: atomicity means all-or-nothing. The victim key is either
	// a clean miss or a complete, digest-verified 64 MB payload — a
	// partial object must never be served.
	c2 := open(t, dir, Options{})
	victimKey := mustKey(t, "victim")
	if payload, ok, err := c2.Get(victimKey); err != nil {
		t.Fatalf("Get after kill: %v", err)
	} else if ok && len(payload) != 64<<20 {
		t.Fatalf("partial object served: %d bytes", len(payload))
	}
	got, ok, err := c2.Get(goodKey)
	if err != nil || !ok || string(got) != "intact" {
		t.Fatalf("survivor entry damaged: %q, %v, %v", got, ok, err)
	}
}

// crashHelperMain runs in the child: it writes an entry slowly enough
// that the parent can kill it mid-stream. The payload is large and the
// writes unbuffered so the temp file exists for a long window.
func crashHelperMain() {
	dir := os.Getenv("SIMCACHE_CRASH_DIR")
	c, err := Open(dir, Options{})
	if err != nil {
		os.Exit(1)
	}
	key, err := Key("victim")
	if err != nil {
		os.Exit(1)
	}
	chunk := strings.Repeat("x", 1<<16)
	var b strings.Builder
	for i := 0; i < 1024; i++ {
		b.WriteString(chunk) // 64 MB total: plenty of time to be killed
	}
	c.Put(key, []byte(b.String()))
	os.Exit(0)
}

func hasTempFile(root string) bool {
	found := false
	filepath.Walk(root, func(path string, info os.FileInfo, err error) error {
		if err == nil && info != nil && !info.IsDir() && strings.Contains(filepath.Base(path), ".tmp") {
			found = true
		}
		return nil
	})
	return found
}

// TestRebuildRecencyFromMtimes is the regression test for the
// rebuild-eviction bug: rebuildIndex used to reset LRU recency to
// key-sorted order, so after an index loss the entry whose key happened
// to sort first was evicted first regardless of how recently it was
// used. The rebuilt order must come from object mtimes instead: the
// entry touched longest ago is the eviction victim.
func TestRebuildRecencyFromMtimes(t *testing.T) {
	dir := t.TempDir()
	c := open(t, dir, Options{})
	// Keys chosen so the buggy key-sorted recovery would evict the HOT
	// entry ("aa…" sorts before "zz…" and got the oldest seq).
	hot, cold := "aahot-entry", "zzcold-entry"
	if err := c.Put(cold, []byte("cold-data!")); err != nil {
		t.Fatal(err)
	}
	if err := c.Put(hot, []byte("hot-data!!")); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	// Stamp mtimes explicitly: filesystems may round timestamps, and the
	// test must not depend on Put wall-clock spacing.
	base := time.Now().Add(-time.Hour)
	if err := os.Chtimes(c.objectPath(cold), base, base); err != nil {
		t.Fatal(err)
	}
	later := base.Add(10 * time.Minute)
	if err := os.Chtimes(c.objectPath(hot), later, later); err != nil {
		t.Fatal(err)
	}
	// Crash: the index is lost, only the objects survive.
	if err := os.Remove(filepath.Join(dir, "index.json")); err != nil {
		t.Fatal(err)
	}
	// Reopen with a cap that forces one eviction on the next Put.
	c2 := open(t, dir, Options{MaxBytes: 25})
	if c2.Len() != 2 {
		t.Fatalf("rebuilt cache has %d entries, want 2", c2.Len())
	}
	if err := c2.Put("newcomer-xy", []byte("new-data!!")); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := c2.Get(cold); ok {
		t.Fatal("cold entry survived eviction after rebuild")
	}
	if _, ok, _ := c2.Get(hot); !ok {
		t.Fatal("hot (recently used) entry was evicted after rebuild: recency not recovered from mtimes")
	}
}
