package main

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// The host this benchmark runs on is shared, and its speed drifts by tens of
// percent over minutes. A run therefore times a fixed calibration kernel
// between batches and multiplies each batch's times by
// referenceKernel / measured kernel time: the reported times are those of a
// host running at the reference host's speed. The kernel uses no code of the
// repository, so no change to the verifier can move it. Random reads over a
// table larger than the per-core caches make it feel contention for the
// shared cache and memory, which slows the verifier too. Its data lives
// outside the Go heap, so that it neither changes when the garbage collector
// runs nor costs it anything to scan; it adds 5 MiB to the resident set.

// referenceKernel is the kernel time of the notional host that times are
// scaled to: a host whose kernel takes this long reads its times unscaled.
// It is fixed, because changing it rescales every reported time;
// reference.json records the kernel's median on the host that set the
// bounds (kernel_ms).
const referenceKernel = 7 * time.Millisecond

const (
	chaseLen   = 1 << 20 // uint32s: 4 MiB
	chaseSteps = 100_000
	sortLen    = 1 << 14 // uint64s: 128 KiB
	bufLen     = 64 << 10
	// calibEvery is the longest time a batch waits for a fresh calibration.
	calibEvery = 200 * time.Millisecond
)

type kernelState struct {
	pos       uint32
	src, work []uint64
	m         map[uint64]uint64
	buf       []byte
	sum       uint64
}

// calibrator runs the kernel on GOMAXPROCS goroutines at once, so that it
// samples every CPU the workload runs on.
type calibrator struct {
	mem   []byte   // one anonymous mapping holding every slice below
	chase []uint32 // a random cyclic permutation, shared read-only
	st    []*kernelState
}

func newCalibrator() (*calibrator, error) {
	procs := runtime.GOMAXPROCS(0)
	size := 4*chaseLen + procs*(2*8*sortLen+bufLen)
	mem, err := syscall.Mmap(-1, 0, size, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("mapping the calibration kernel's memory: %w", err)
	}
	rest := mem
	take := func(n int) unsafe.Pointer {
		p := unsafe.Pointer(&rest[0])
		rest = rest[n:]
		return p
	}
	c := &calibrator{mem: mem, chase: unsafe.Slice((*uint32)(take(4*chaseLen)), chaseLen)}
	r := rand.New(rand.NewSource(1))
	// Sattolo's shuffle makes chase a single cycle through every entry.
	for i := range c.chase {
		c.chase[i] = uint32(i)
	}
	for i := chaseLen - 1; i > 0; i-- {
		j := r.Intn(i)
		c.chase[i], c.chase[j] = c.chase[j], c.chase[i]
	}
	for g := 0; g < procs; g++ {
		s := &kernelState{
			pos:  uint32(g * 7919 % chaseLen),
			src:  unsafe.Slice((*uint64)(take(8*sortLen)), sortLen),
			work: unsafe.Slice((*uint64)(take(8*sortLen)), sortLen),
			m:    make(map[uint64]uint64, 1024),
			buf:  unsafe.Slice((*byte)(take(bufLen)), bufLen),
		}
		for i := range s.src {
			s.src[i] = r.Uint64()
		}
		r.Read(s.buf)
		c.st = append(c.st, s)
	}
	return c, nil
}

func (c *calibrator) close() error { return syscall.Munmap(c.mem) }

func (c *calibrator) kernel(s *kernelState) {
	p := s.pos
	for i := 0; i < chaseSteps; i++ {
		p = c.chase[p]
	}
	s.pos = p
	copy(s.work, s.src)
	slices.Sort(s.work)
	clear(s.m)
	for _, x := range s.work {
		s.m[x%1021] += x
	}
	var acc uint64
	for k, v := range s.m {
		acc += k ^ v
	}
	binary.LittleEndian.PutUint64(s.buf, acc)
	h := sha256.Sum256(s.buf)
	s.sum += binary.LittleEndian.Uint64(h[:])
}

// measure returns the median of three timings of the kernel.
func (c *calibrator) measure() time.Duration {
	var ds [3]time.Duration
	for i := range ds {
		var wg sync.WaitGroup
		t0 := time.Now()
		for _, s := range c.st {
			wg.Add(1)
			go func(s *kernelState) {
				defer wg.Done()
				c.kernel(s)
			}(s)
		}
		wg.Wait()
		ds[i] = time.Since(t0)
	}
	slices.Sort(ds[:])
	return ds[1]
}

// speed is the host's speed relative to the reference host, from the
// kernel times measured before and after an interval.
func speed(before, after time.Duration) float64 {
	return float64(referenceKernel) / (float64(before+after) / 2)
}
