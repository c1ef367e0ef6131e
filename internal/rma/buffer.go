package rma

import (
	"encoding/binary"
	"fmt"

	"rmarace/internal/access"
	"rmarace/internal/detector"
	"rmarace/internal/interval"
	"rmarace/internal/mpi"
)

// Proc is one rank's instrumented handle: it wraps the mpi.Proc with
// buffer allocation, instrumented local accesses and window creation.
type Proc struct {
	*mpi.Proc
	s *Session
	// time is the rank's program-order counter; only this rank's
	// goroutine advances it.
	time uint64
	// open lists this rank's windows with an open passive-target epoch;
	// instrumented local accesses are analysed against each of them.
	open []*Win
}

// Proc attaches a rank to the session.
func (s *Session) Proc(p *mpi.Proc) *Proc {
	return &Proc{Proc: p, s: s}
}

// tick advances and returns the rank's program-order counter.
func (p *Proc) tick() uint64 {
	p.time++
	return p.time
}

// Buffer is an instrumented region of one rank's simulated address
// space. Loads and stores through it are observed by the analyzers;
// Raw gives uninstrumented access for verification code.
type Buffer struct {
	p     *Proc
	name  string
	base  uint64
	data  []byte
	stack bool
	// filtered marks a buffer the compile-time alias analysis proved
	// never to alias an RMA region (Untracked), unless the session runs
	// with DisableAliasFilter. skip is decided from it once, at Alloc:
	// under every method but MUST-RMA the buffer's local accesses are
	// not instrumented, so they build no event and reach no analyzer.
	// MUST-RMA's ThreadSanitizer instruments them anyway, as Filtered
	// events.
	filtered bool
	skip     bool
	// winG is set when the buffer is a window's exposed memory: its
	// bytes may be touched by remote copies, so the owner's local
	// accesses serialise on the window's copy mutex.
	winG *winGlobal
}

// BufOpt configures Alloc.
type BufOpt func(*Buffer)

// OnStack marks the buffer as stack-allocated. ThreadSanitizer (and so
// the MUST-RMA simulator) does not instrument local accesses to stack
// arrays (§5.2).
func OnStack() BufOpt { return func(b *Buffer) { b.stack = true } }

// Untracked marks the buffer as proven by the compile-time alias
// analysis to never alias an RMA region: its local accesses are not
// instrumented for the tree-based analyzers and Baseline, but are for
// the MUST-RMA simulator (ThreadSanitizer), which pays for them.
func Untracked() BufOpt { return func(b *Buffer) { b.filtered = true } }

// Alloc reserves an instrumented buffer of size bytes in this rank's
// address space.
func (p *Proc) Alloc(name string, size int, opts ...BufOpt) *Buffer {
	if size <= 0 {
		panic(fmt.Sprintf("rma: Alloc(%q) with size %d", name, size))
	}
	b := &Buffer{
		p:    p,
		name: name,
		base: p.AllocAddr(uint64(size)),
		data: make([]byte, size),
	}
	for _, o := range opts {
		o(b)
	}
	cfg := &p.s.cfg
	b.filtered = b.filtered && !cfg.DisableAliasFilter
	b.skip = b.filtered && cfg.Method != detector.MustRMAMethod
	return b
}

// Name returns the buffer's debug name.
func (b *Buffer) Name() string { return b.name }

// Size returns the buffer length in bytes.
func (b *Buffer) Size() int { return len(b.data) }

// Base returns the buffer's simulated virtual base address.
func (b *Buffer) Base() uint64 { return b.base }

// Raw returns the underlying bytes without instrumentation, for test
// and verification code only. For window memory it must only be used
// while no remote operation can be in flight (before the first epoch or
// after the last synchronisation).
func (b *Buffer) Raw() []byte { return b.data }

// span returns the simulated address interval of [off, off+n), which
// the caller has checked with inBounds.
func (b *Buffer) span(off, n int) interval.Interval {
	return interval.Span(b.base+uint64(off), uint64(n))
}

// instrument runs the instrumentation of one local load or store of n
// bytes at off, before any byte moves: the bounds check, the rank's
// program-order tick, and, unless the alias filter removed the buffer,
// the analysis against every window with an open epoch.
func (b *Buffer) instrument(off, n int, tp access.Type, dbg access.Debug) error {
	if err := inBounds(b, off, n); err != nil {
		return err
	}
	p := b.p
	if b.skip {
		p.tick()
		return nil
	}
	return p.localAccess(detector.Event{
		Acc: access.Access{
			Interval: b.span(off, n),
			Type:     tp,
			Rank:     p.Rank(),
			Stack:    b.stack,
			Debug:    dbg,
			StackID:  p.s.stackID(),
		},
		Time:     p.tick(),
		Filtered: b.filtered,
	})
}

// localAccess routes a local access to every window of this rank with
// an open epoch. Outside any epoch the access is not collected,
// matching the paper's "memory accesses that are contained within each
// epoch".
func (p *Proc) localAccess(ev detector.Event) error {
	for _, w := range p.open {
		ev.Acc.Epoch = w.g.eng.Epoch(p.Rank())
		if err := w.analyse(p.Rank(), ev); err != nil {
			return err
		}
	}
	return nil
}

// lockData and unlockData bracket the owner's data movement on window
// memory with the window's copy mutex; other buffers need no lock.
func (b *Buffer) lockData() {
	if b.winG != nil {
		b.winG.copyMu.Lock()
	}
}

func (b *Buffer) unlockData() {
	if b.winG != nil {
		b.winG.copyMu.Unlock()
	}
}

// Load performs an instrumented read of n bytes at off and returns
// them. dbg locates the load in the instrumented program.
func (b *Buffer) Load(off, n int, dbg access.Debug) ([]byte, error) {
	if err := b.instrument(off, n, access.LocalRead, dbg); err != nil {
		return nil, err
	}
	out := make([]byte, n)
	b.lockData()
	copy(out, b.data[off:off+n])
	b.unlockData()
	return out, nil
}

// Store performs an instrumented write of val at off.
func (b *Buffer) Store(off int, val []byte, dbg access.Debug) error {
	if err := b.instrument(off, len(val), access.LocalWrite, dbg); err != nil {
		return err
	}
	b.lockData()
	copy(b.data[off:], val)
	b.unlockData()
	return nil
}

// LoadU64 reads an 8-byte little-endian word at off, in place.
func (b *Buffer) LoadU64(off int, dbg access.Debug) (uint64, error) {
	if err := b.instrument(off, 8, access.LocalRead, dbg); err != nil {
		return 0, err
	}
	b.lockData()
	v := binary.LittleEndian.Uint64(b.data[off:])
	b.unlockData()
	return v, nil
}

// StoreU64 writes an 8-byte little-endian word at off, in place.
func (b *Buffer) StoreU64(off int, v uint64, dbg access.Debug) error {
	if err := b.instrument(off, 8, access.LocalWrite, dbg); err != nil {
		return err
	}
	b.lockData()
	binary.LittleEndian.PutUint64(b.data[off:], v)
	b.unlockData()
	return nil
}
