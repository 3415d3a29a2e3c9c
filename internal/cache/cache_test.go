package cache

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

func testVerdict(bound int64) Verdict {
	return Verdict{
		Unsafe:         true,
		Complete:       true,
		EnvThreadBound: bound,
		Witness:        []string{"step 1", "step 2"},
		DecidedBy:      "fixpoint",
	}
}

func TestDoMissThenHit(t *testing.T) {
	c := New(Options{})
	computes := 0
	compute := func() (Verdict, bool, error) {
		computes++
		return testVerdict(2), true, nil
	}
	v, out, err := c.Do(context.Background(), "k", compute)
	if err != nil || out != Miss || v.EnvThreadBound != 2 {
		t.Fatalf("first Do = (%+v, %v, %v), want miss", v, out, err)
	}
	v, out, err = c.Do(context.Background(), "k", compute)
	if err != nil || out != Hit || v.EnvThreadBound != 2 {
		t.Fatalf("second Do = (%+v, %v, %v), want hit", v, out, err)
	}
	if computes != 1 {
		t.Fatalf("compute ran %d times, want 1", computes)
	}
	s := c.Stats()
	if s.Hits != 1 || s.Misses != 1 || s.Stores != 1 || s.Entries != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestDoUnstorableNotCached(t *testing.T) {
	c := New(Options{})
	for i := 0; i < 2; i++ {
		_, out, err := c.Do(context.Background(), "k", func() (Verdict, bool, error) {
			return Verdict{Complete: false}, false, nil
		})
		if err != nil || out != Miss {
			t.Fatalf("run %d: out=%v err=%v, want miss (incomplete results must not cache)", i, out, err)
		}
	}
	if s := c.Stats(); s.Entries != 0 || s.Stores != 0 || s.Misses != 2 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestDoErrorNotCached(t *testing.T) {
	c := New(Options{})
	boom := errors.New("boom")
	_, _, err := c.Do(context.Background(), "k", func() (Verdict, bool, error) {
		return Verdict{}, true, boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if s := c.Stats(); s.Entries != 0 || s.Stores != 0 {
		t.Fatalf("errored compute was cached: %+v", s)
	}
}

// TestDoSingleFlight: concurrent callers of the same key run exactly one
// compute; everyone gets the same verdict.
func TestDoSingleFlight(t *testing.T) {
	c := New(Options{})
	const n = 32
	var mu sync.Mutex
	computes := 0
	started := make(chan struct{})
	release := make(chan struct{})
	var wg sync.WaitGroup
	results := make([]Outcome, n)
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, out, err := c.Do(context.Background(), "k", func() (Verdict, bool, error) {
				mu.Lock()
				computes++
				first := computes == 1
				mu.Unlock()
				if first {
					close(started)
					<-release
				}
				return testVerdict(3), true, nil
			})
			results[i], errs[i] = out, err
			if err == nil && v.EnvThreadBound != 3 {
				t.Errorf("goroutine %d: wrong verdict %+v", i, v)
			}
		}(i)
	}
	<-started
	close(release)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d: %v", i, err)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if computes != 1 {
		t.Fatalf("compute ran %d times under single-flight, want 1", computes)
	}
	var miss, other int
	for _, out := range results {
		if out == Miss {
			miss++
		} else {
			other++
		}
	}
	if miss != 1 || other != n-1 {
		t.Fatalf("outcomes: %d miss, %d hit/shared; want 1 and %d", miss, other, n-1)
	}
}

// TestDoWaiterFallsBackWhenLeaderFails: a waiter must not inherit the
// leader's error (it may be the leader's own budget); it computes itself.
func TestDoWaiterFallsBackWhenLeaderFails(t *testing.T) {
	c := New(Options{})
	leaderIn := make(chan struct{})
	release := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, _, err := c.Do(context.Background(), "k", func() (Verdict, bool, error) {
			close(leaderIn)
			<-release
			return Verdict{}, false, errors.New("leader budget")
		})
		if err == nil {
			t.Error("leader error vanished")
		}
	}()
	<-leaderIn
	done := make(chan struct{})
	go func() {
		defer close(done)
		v, out, err := c.Do(context.Background(), "k", func() (Verdict, bool, error) {
			return testVerdict(1), true, nil
		})
		if err != nil || out != Miss || v.EnvThreadBound != 1 {
			t.Errorf("waiter fallback = (%+v, %v, %v)", v, out, err)
		}
	}()
	close(release)
	wg.Wait()
	<-done
}

// TestDoWaiterCancelled: ctx death while waiting returns ctx.Err() without
// computing.
func TestDoWaiterCancelled(t *testing.T) {
	c := New(Options{})
	leaderIn := make(chan struct{})
	release := make(chan struct{})
	go func() {
		c.Do(context.Background(), "k", func() (Verdict, bool, error) {
			close(leaderIn)
			<-release
			return testVerdict(1), true, nil
		})
	}()
	<-leaderIn
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err := c.Do(ctx, "k", func() (Verdict, bool, error) {
		t.Error("cancelled waiter ran compute")
		return Verdict{}, false, nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	close(release)
}

func TestLRUEviction(t *testing.T) {
	c := New(Options{MaxEntries: 3})
	for i := 0; i < 5; i++ {
		c.Put(fmt.Sprintf("k%d", i), testVerdict(int64(i)))
	}
	if s := c.Stats(); s.Entries != 3 || s.Evictions != 2 {
		t.Fatalf("stats = %+v, want 3 entries / 2 evictions", s)
	}
	if _, ok := c.Get("k0"); ok {
		t.Error("oldest entry survived eviction")
	}
	if v, ok := c.Get("k4"); !ok || v.EnvThreadBound != 4 {
		t.Error("newest entry missing")
	}
	// Touching k2 must save it from the next eviction.
	c.Get("k2")
	c.Put("k5", testVerdict(5))
	if _, ok := c.Get("k2"); !ok {
		t.Error("recently used entry was evicted")
	}
	if _, ok := c.Get("k3"); ok {
		t.Error("least recently used entry survived")
	}
}

func TestDiskRoundTrip(t *testing.T) {
	dir := t.TempDir()
	c1 := New(Options{Dir: dir})
	want := testVerdict(4)
	want.Class.HasEnv = true
	c1.Put("deadbeef", want)

	// A fresh cache over the same directory reads the verdict through.
	c2 := New(Options{Dir: dir})
	v, out, err := c2.Do(context.Background(), "deadbeef", func() (Verdict, bool, error) {
		t.Error("disk-resident verdict recomputed")
		return Verdict{}, false, nil
	})
	if err != nil || out != Hit {
		t.Fatalf("Do = (%v, %v)", out, err)
	}
	if v.EnvThreadBound != 4 || len(v.Witness) != 2 || !v.Class.HasEnv {
		t.Fatalf("verdict lost fields across disk: %+v", v)
	}
	if s := c2.Stats(); s.DiskHits != 1 || s.Hits != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

// TestDiskCorruptionDetected: truncated and bit-flipped entries must be
// detected by checksum, counted, removed, and treated as misses.
func TestDiskCorruptionDetected(t *testing.T) {
	for _, tc := range []struct {
		name    string
		corrupt func(path string) error
	}{
		{"truncated", func(p string) error {
			raw, err := os.ReadFile(p)
			if err != nil {
				return err
			}
			return os.WriteFile(p, raw[:len(raw)/2], 0o644)
		}},
		{"bit-flip", func(p string) error {
			raw, err := os.ReadFile(p)
			if err != nil {
				return err
			}
			// Flip a byte inside the verdict payload, not the envelope
			// syntax, so only the checksum can catch it.
			i := len(raw) / 2
			if raw[i] == 't' {
				raw[i] = 'f'
			} else {
				raw[i] = 't'
			}
			return os.WriteFile(p, raw, 0o644)
		}},
		{"garbage", func(p string) error {
			return os.WriteFile(p, []byte("not json at all"), 0o644)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			c1 := New(Options{Dir: dir})
			c1.Put("cafe", testVerdict(7))
			files, err := filepath.Glob(filepath.Join(dir, "*.json"))
			if err != nil || len(files) != 1 {
				t.Fatalf("glob: %v %v", files, err)
			}
			if err := tc.corrupt(files[0]); err != nil {
				t.Fatal(err)
			}
			c2 := New(Options{Dir: dir})
			computed := false
			_, out, err := c2.Do(context.Background(), "cafe", func() (Verdict, bool, error) {
				computed = true
				return testVerdict(1), true, nil
			})
			if err != nil || out != Miss || !computed {
				t.Fatalf("corrupt entry not treated as a miss: out=%v err=%v computed=%v", out, err, computed)
			}
			if s := c2.Stats(); s.DiskCorrupt != 1 {
				t.Fatalf("DiskCorrupt = %d, want 1 (stats %+v)", s.DiskCorrupt, s)
			}
			// The recompute overwrites the corrupt file with a good entry.
			c3 := New(Options{Dir: dir})
			if v, ok := c3.Get("cafe"); !ok || v.EnvThreadBound != 1 {
				t.Errorf("recomputed verdict not re-stored cleanly: %+v ok=%v", v, ok)
			}
		})
	}
}

// TestDiskSizeBoundedEviction: the persistent layer must not grow without
// bound — a write past DiskMaxBytes evicts the least-recently-used entries
// (mtime order, bumped by read-through), and a restarted cache re-learns the
// directory's size in its startup scan, enforcing even a lowered cap.
func TestDiskSizeBoundedEviction(t *testing.T) {
	dir := t.TempDir()
	// Measure one entry's on-disk size so the cap can be set in entries.
	probe := New(Options{Dir: dir})
	probe.Put("probe", testVerdict(1))
	files, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil || len(files) != 1 {
		t.Fatalf("glob: %v %v", files, err)
	}
	info, err := os.Stat(files[0])
	if err != nil {
		t.Fatal(err)
	}
	size := info.Size()
	if err := os.Remove(files[0]); err != nil {
		t.Fatal(err)
	}

	cap3 := 3*size + size/2 // three entries fit, a fourth does not
	c := New(Options{Dir: dir, DiskMaxBytes: cap3})
	old := time.Now().Add(-time.Hour)
	for i, k := range []string{"k0", "k1", "k2"} {
		c.Put(k, testVerdict(1))
		mt := old.Add(time.Duration(i) * time.Minute)
		if err := os.Chtimes(filepath.Join(dir, k+".json"), mt, mt); err != nil {
			t.Fatal(err)
		}
	}

	// A read-through on k0 (fresh cache, so memory is empty) bumps its
	// recency, making k1 the oldest entry and thus the eviction victim.
	c2 := New(Options{Dir: dir, DiskMaxBytes: cap3})
	if _, ok := c2.Get("k0"); !ok {
		t.Fatal("k0 not readable through disk")
	}
	c2.Put("k3", testVerdict(1))
	if _, err := os.Stat(filepath.Join(dir, "k1.json")); !os.IsNotExist(err) {
		t.Errorf("k1 (least recently used) not evicted: stat err = %v", err)
	}
	for _, k := range []string{"k0", "k2", "k3"} {
		if _, err := os.Stat(filepath.Join(dir, k+".json")); err != nil {
			t.Errorf("%s evicted, want kept: %v", k, err)
		}
	}
	if s := c2.Stats(); s.DiskEvictions != 1 {
		t.Errorf("DiskEvictions = %d, want 1 (stats %+v)", s.DiskEvictions, s)
	}

	// Restart with a lowered cap: the startup scan evicts down to it,
	// keeping only the most recently written entry.
	New(Options{Dir: dir, DiskMaxBytes: size + size/2})
	left, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(left) != 1 || filepath.Base(left[0]) != "k3.json" {
		t.Errorf("restart with lowered cap left %v, want only k3.json", left)
	}

	// A negative cap disables the bound entirely.
	u := New(Options{Dir: dir, DiskMaxBytes: -1})
	for i := 0; i < 8; i++ {
		u.Put(fmt.Sprintf("u%d", i), testVerdict(1))
	}
	left, err = filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil || len(left) != 9 {
		t.Errorf("unbounded store evicted: %d files, %v", len(left), err)
	}
	if s := u.Stats(); s.DiskEvictions != 0 {
		t.Errorf("unbounded DiskEvictions = %d", s.DiskEvictions)
	}
}

// TestDiskRecencyOneClock: a write and a read-through stamp an entry's
// recency from the same clock, so an entry written after a read is the more
// recent one even when the file system's clock lags the store's. The
// store's clock runs an hour ahead here: k0 is read, then k3 written, and a
// restart with room for one entry must keep k3.
func TestDiskRecencyOneClock(t *testing.T) {
	dir := t.TempDir()
	ahead := time.Now().Add(time.Hour)
	tick := 0
	clock := func() time.Time {
		tick++
		return ahead.Add(time.Duration(tick) * time.Second)
	}
	c1 := New(Options{Dir: dir})
	c1.disk.now = clock
	c1.Put("k0", testVerdict(1))
	info, err := os.Stat(filepath.Join(dir, "k0.json"))
	if err != nil {
		t.Fatal(err)
	}
	size := info.Size()

	// A fresh cache, so the read goes through to disk.
	c2 := New(Options{Dir: dir})
	c2.disk.now = clock
	if _, ok := c2.Get("k0"); !ok {
		t.Fatal("k0 not readable through disk")
	}
	c2.Put("k3", testVerdict(1))

	New(Options{Dir: dir, DiskMaxBytes: size + size/2})
	left, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(left) != 1 || filepath.Base(left[0]) != "k3.json" {
		t.Errorf("restart with room for one entry left %v, want only k3.json (written after k0 was read)", left)
	}
}

func TestDiskIgnoresUnsafeKeys(t *testing.T) {
	dir := t.TempDir()
	c := New(Options{Dir: dir})
	c.Put("../escape", testVerdict(1))
	if _, err := os.Stat(filepath.Join(filepath.Dir(dir), "escape.json")); err == nil {
		t.Fatal("key escaped the cache directory")
	}
	if _, ok := c.Get("../escape"); !ok {
		t.Fatal("hashed key not readable back")
	}
}

func TestNilCacheSafe(t *testing.T) {
	var c *Cache
	if s := c.Stats(); s != (Stats{}) {
		t.Fatal("nil stats not zero")
	}
}
