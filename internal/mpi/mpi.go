// Package mpi is an in-process message-passing runtime standing in for
// the MPI library of the paper's experiments. Ranks are goroutines;
// point-to-point messages travel over per-rank mailboxes; collectives
// (Barrier, Reduce, Allreduce, Bcast) are served by a per-world
// coordinator; MPI_Abort is modelled by a world-wide abort that unblocks
// every pending operation.
//
// The package deliberately exposes only what the reproduced system
// needs: SPMD execution, tagged Send/Recv, integer-vector collectives
// and a per-rank virtual-address allocator (each simulated process has
// its own address space, as real MPI processes do). One-sided
// communication lives one layer up, in package internal/rma, which is
// where the paper's PMPI instrumentation sits too.
package mpi

import (
	"errors"
	"fmt"
	"sync"
)

// ErrAborted is returned by every blocked operation once the world has
// been aborted (the MPI_Abort model).
var ErrAborted = errors.New("mpi: world aborted")

// Message is a tagged point-to-point message.
type Message struct {
	Src, Tag int
	Data     []byte
}

// Op is a reduction operator for integer-vector collectives.
type Op int

// Reduction operators.
const (
	OpSum Op = iota
	OpMax
	OpMin
)

func (o Op) apply(dst, src []int64) {
	for i := range dst {
		switch o {
		case OpSum:
			dst[i] += src[i]
		case OpMax:
			if src[i] > dst[i] {
				dst[i] = src[i]
			}
		case OpMin:
			if src[i] < dst[i] {
				dst[i] = src[i]
			}
		}
	}
}

const (
	collBarrier = iota
	collAllreduce
	collReduce
	collBcast
)

type collReq struct {
	kind  int
	rank  int
	root  int
	op    Op
	vals  []int64
	data  []byte
	reply chan collResp
}

type collResp struct {
	vals []int64
	data []byte
	err  error
}

// World is one simulated MPI job. Create it with NewWorld and execute
// the SPMD body with Run.
type World struct {
	n int
	// inboxes holds each rank's point-to-point mailbox, made on the
	// rank's first Send or Recv (inbox). Collectives do not use them,
	// so a world that never sends holds none.
	inboxes   []chan Message
	inboxOnce []sync.Once
	collCh    chan collReq

	abortOnce sync.Once
	abortCh   chan struct{}
	abortMu   sync.Mutex
	abortErr  error

	doneOnce sync.Once
	doneCh   chan struct{}

	addrMu   sync.Mutex
	nextAddr []uint64
}

// NewWorld creates a world of n ranks and starts its collective
// coordinator.
func NewWorld(n int) *World {
	if n <= 0 {
		panic("mpi: world size must be positive")
	}
	w := &World{
		n:         n,
		inboxes:   make([]chan Message, n),
		inboxOnce: make([]sync.Once, n),
		collCh:    make(chan collReq, n),
		abortCh:   make(chan struct{}),
		doneCh:    make(chan struct{}),
		nextAddr:  make([]uint64, n),
	}
	for i := range w.nextAddr {
		// Give each rank its own distinct virtual address space start;
		// addresses of different ranks never collide, like real
		// processes.
		w.nextAddr[i] = 1 << 20
	}
	go w.coordinate()
	return w
}

// Size returns the number of ranks.
func (w *World) Size() int { return w.n }

// inboxCap is the number of unreceived messages a rank's mailbox holds
// before a Send to it blocks: Send models an eager MPI send, which
// returns before the matching receive is posted.
const inboxCap = 4096

// inbox returns rank's mailbox, making it on first use: a mailbox is
// inboxCap messages (160 KB), and only the ranks that exchange
// point-to-point messages need one.
func (w *World) inbox(rank int) chan Message {
	w.inboxOnce[rank].Do(func() { w.inboxes[rank] = make(chan Message, inboxCap) })
	return w.inboxes[rank]
}

// Abort terminates the world with err; the first call wins. All blocked
// operations return ErrAborted.
func (w *World) Abort(err error) {
	w.abortOnce.Do(func() {
		w.abortMu.Lock()
		w.abortErr = err
		w.abortMu.Unlock()
		close(w.abortCh)
	})
}

// AbortErr returns the error the world was aborted with, or nil.
func (w *World) AbortErr() error {
	w.abortMu.Lock()
	defer w.abortMu.Unlock()
	return w.abortErr
}

// Aborted returns a channel closed when the world aborts.
func (w *World) Aborted() <-chan struct{} { return w.abortCh }

// Run executes body once per rank, each in its own goroutine, and waits
// for all of them. If any body returns an error the world is aborted
// and Run returns that error; if the world was aborted by other means
// Run returns the abort reason.
func (w *World) Run(body func(p *Proc) error) error {
	var wg sync.WaitGroup
	errs := make([]error, w.n)
	for r := 0; r < w.n; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			defer func() {
				if rec := recover(); rec != nil {
					w.Abort(fmt.Errorf("mpi: rank %d panicked: %v", rank, rec))
				}
			}()
			if err := body(&Proc{w: w, rank: rank}); err != nil {
				errs[rank] = err
				w.Abort(err)
			}
		}(r)
	}
	wg.Wait()
	// Release the coordinator so a finished world can be collected.
	w.doneOnce.Do(func() { close(w.doneCh) })
	if err := w.AbortErr(); err != nil {
		return err
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// coordinate serves collectives: it gathers one request per rank,
// checks they agree on the operation, computes the result and replies.
func (w *World) coordinate() {
	pending := make([]collReq, 0, w.n)
	for {
		select {
		case <-w.doneCh:
			return
		case <-w.abortCh:
			// Drain forever, failing every request, so late callers
			// unblock.
			for {
				select {
				case req := <-w.collCh:
					req.reply <- collResp{err: ErrAborted}
				default:
					return
				}
			}
		case req := <-w.collCh:
			pending = append(pending, req)
			if len(pending) < w.n {
				continue
			}
			w.serveCollective(pending)
			pending = pending[:0]
		}
	}
}

func (w *World) serveCollective(reqs []collReq) {
	first := reqs[0]
	for _, r := range reqs[1:] {
		if r.kind != first.kind || r.root != first.root || r.op != first.op {
			err := fmt.Errorf("mpi: collective mismatch: rank %d called kind=%d root=%d, rank %d called kind=%d root=%d",
				first.rank, first.kind, first.root, r.rank, r.kind, r.root)
			w.Abort(err)
			for _, rr := range reqs {
				rr.reply <- collResp{err: err}
			}
			return
		}
	}
	if w.serveGatherFamily(reqs) {
		return
	}
	switch first.kind {
	case collBarrier:
		for _, r := range reqs {
			r.reply <- collResp{}
		}
	case collAllreduce, collReduce:
		acc := make([]int64, len(first.vals))
		copy(acc, first.vals)
		for _, r := range reqs[1:] {
			first.op.apply(acc, r.vals)
		}
		for _, r := range reqs {
			if first.kind == collReduce && r.rank != first.root {
				r.reply <- collResp{}
				continue
			}
			out := make([]int64, len(acc))
			copy(out, acc)
			r.reply <- collResp{vals: out}
		}
	case collBcast:
		var payload []byte
		for _, r := range reqs {
			if r.rank == first.root {
				payload = r.data
			}
		}
		for _, r := range reqs {
			out := make([]byte, len(payload))
			copy(out, payload)
			r.reply <- collResp{data: out}
		}
	}
}

// Proc is one rank's handle on the world.
type Proc struct {
	w       *World
	rank    int
	pending []Message
}

// Rank returns this process's rank.
func (p *Proc) Rank() int { return p.rank }

// Size returns the world size.
func (p *Proc) Size() int { return p.w.n }

// World returns the underlying world.
func (p *Proc) World() *World { return p.w }

// Send delivers data to dst with the given tag. It blocks only when
// dst's mailbox is full and returns ErrAborted if the world aborts.
func (p *Proc) Send(dst, tag int, data []byte) error {
	if dst < 0 || dst >= p.w.n {
		return fmt.Errorf("mpi: send to invalid rank %d", dst)
	}
	msg := Message{Src: p.rank, Tag: tag, Data: data}
	select {
	case p.w.inbox(dst) <- msg:
		return nil
	case <-p.w.abortCh:
		return ErrAborted
	}
}

// Recv returns the next message from src with the given tag, buffering
// non-matching messages. src == AnySource matches any sender.
func (p *Proc) Recv(src, tag int) (Message, error) {
	for i, m := range p.pending {
		if matches(m, src, tag) {
			p.pending = append(p.pending[:i], p.pending[i+1:]...)
			return m, nil
		}
	}
	inbox := p.w.inbox(p.rank)
	for {
		select {
		case m := <-inbox:
			if matches(m, src, tag) {
				return m, nil
			}
			p.pending = append(p.pending, m)
		case <-p.w.abortCh:
			return Message{}, ErrAborted
		}
	}
}

// AnySource matches any sending rank in Recv.
const AnySource = -1

func matches(m Message, src, tag int) bool {
	return (src == AnySource || m.Src == src) && m.Tag == tag
}

// Barrier blocks until every rank has entered it.
func (p *Proc) Barrier() error {
	_, _, err := p.collective(collReq{kind: collBarrier, rank: p.rank})
	return err
}

// Allreduce combines vals element-wise across all ranks with op and
// returns the result to every rank.
func (p *Proc) Allreduce(vals []int64, op Op) ([]int64, error) {
	v, _, err := p.collective(collReq{kind: collAllreduce, rank: p.rank, op: op, vals: vals})
	return v, err
}

// Reduce combines vals across all ranks; only root receives the result
// (others get nil).
func (p *Proc) Reduce(root int, vals []int64, op Op) ([]int64, error) {
	v, _, err := p.collective(collReq{kind: collReduce, rank: p.rank, root: root, op: op, vals: vals})
	return v, err
}

// Bcast distributes root's data to every rank.
func (p *Proc) Bcast(root int, data []byte) ([]byte, error) {
	_, d, err := p.collective(collReq{kind: collBcast, rank: p.rank, root: root, data: data})
	return d, err
}

func (p *Proc) collective(req collReq) ([]int64, []byte, error) {
	req.reply = make(chan collResp, 1)
	select {
	case p.w.collCh <- req:
	case <-p.w.abortCh:
		return nil, nil, ErrAborted
	}
	select {
	case resp := <-req.reply:
		return resp.vals, resp.data, resp.err
	case <-p.w.abortCh:
		return nil, nil, ErrAborted
	}
}

// AllocAddr reserves size bytes of this rank's virtual address space and
// returns the base address. Allocations are aligned to 64 bytes and
// separated by a guard gap so that distinct buffers never share a
// shadow-memory granule.
func (p *Proc) AllocAddr(size uint64) uint64 {
	const align, gap = 64, 128
	w := p.w
	w.addrMu.Lock()
	defer w.addrMu.Unlock()
	base := (w.nextAddr[p.rank] + align - 1) &^ (align - 1)
	w.nextAddr[p.rank] = base + size + gap
	return base
}
