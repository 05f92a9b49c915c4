package main

import (
	"fmt"
	"syscall"
	"time"
	"unsafe"
)

// probeRef is the time the host probe is taken to need on the reference
// host. Timings are reported as wall time × probeRef ÷ the probe time
// measured next to them: the time they would take on a host where the
// probe runs in probeRef.
const probeRef = 100 * time.Millisecond

// probeN and probeRounds size the probe: 2^20 nodes, whose arrays
// (28 MiB) are of the order of the workloads' heaps. Gossip on 2^14 to
// 2^22 nodes, a bitset, map, sort or tree-walk kernel, a pointer chase,
// a register-only loop, and pairs of these, followed the host's slow
// states no better on all workloads (see README, "Host scaling").
const (
	probeN      = 1 << 20
	probeRounds = 4
)

// pushMsg is one queued push of the probe.
type pushMsg struct {
	to  int32
	val float64
}

// hostProbe is a fixed kernel timed next to every timed query and
// set-up, to measure how fast the shared host runs at that moment. It is
// a few rounds of push gossip on probeN nodes: every node halves its
// value and queues the other half for a pseudo-random node, then the
// queue is delivered. Its arrays are mapped outside the Go heap, so they
// neither pace the garbage collector nor count as allocations.
type hostProbe struct {
	val   []float64
	cnt   []int32
	queue []pushMsg
	bytes int // mapped size, resident after the first run
	sink  float64
}

func newHostProbe() (*hostProbe, error) {
	p := &hostProbe{}
	var err error
	if p.val, err = mapSlice[float64](probeN, &p.bytes); err != nil {
		return nil, err
	}
	if p.cnt, err = mapSlice[int32](probeN, &p.bytes); err != nil {
		return nil, err
	}
	if p.queue, err = mapSlice[pushMsg](probeN, &p.bytes); err != nil {
		return nil, err
	}
	p.queue = p.queue[:0]
	return p, nil
}

// mapSlice maps an anonymous n-element slice outside the Go heap and adds
// its size to *bytes.
func mapSlice[T any](n int, bytes *int) ([]T, error) {
	var zero T
	size := n * int(unsafe.Sizeof(zero))
	b, err := syscall.Mmap(-1, 0, size, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_PRIVATE|syscall.MAP_ANON)
	if err != nil {
		return nil, fmt.Errorf("host probe: %w", err)
	}
	*bytes += size
	return unsafe.Slice((*T)(unsafe.Pointer(&b[0])), n), nil
}

// run times one probe.
func (p *hostProbe) run() time.Duration {
	t0 := time.Now()
	val, cnt := p.val, p.cnt
	for i := range val {
		val[i] = float64(i % 1000)
		cnt[i] = 0
	}
	x := uint64(0x9E3779B97F4A7C15)
	for r := 0; r < probeRounds; r++ {
		q := p.queue[:0]
		for i := range val {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			q = append(q, pushMsg{int32(x & (probeN - 1)), val[i] / 2})
			val[i] /= 2
		}
		for _, m := range q {
			if val[m.to] < m.val {
				cnt[m.to]++
			}
			val[m.to] += m.val
		}
	}
	p.sink += val[probeN/3] + float64(cnt[probeN/2])
	return time.Since(t0)
}

// scaled is d on the reference host, given the probe time next to it.
func scaled(d, probe time.Duration) float64 {
	return d.Seconds() * probeRef.Seconds() / probe.Seconds()
}
