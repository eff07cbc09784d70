// Package pool provides asynchronous, double-buffered correlation
// pools: background workers run protocol iterations (ferret.Extend)
// pipelined ahead of demand, so drawing correlations almost never
// blocks on an interactive protocol round trip.
//
// A pool wraps a source function that produces one batch of
// correlations per call. With Config.Depth == 0 the pool is a plain
// synchronous buffer — the drawing goroutine runs the source inline,
// exactly the seed code path. With Depth > 0 a worker goroutine keeps
// up to Depth batches ready, refilling whenever the ready count falls
// below the low-water mark (classic double-buffer hysteresis: dip
// below low water, fill back up to high water).
//
// Because the source is usually an interactive two-party protocol,
// asynchronous refills put protocol traffic on the pool's conn from a
// background goroutine. The conn must therefore be dedicated to
// correlation generation while a Depth > 0 pool is open; multiplex
// application traffic onto a second conn. Dealt buffers both halves
// of a dealt stream under one worker; the otserv dispenser builds its
// sessions from one over a correlation dealer.
//
// The ready buffer is a queue of source batches: a refill queues its
// batch without copying it under the pool lock, draws copy out of the
// front batch, and each batch is released once drained — unlike the
// seed's `buf = buf[n:]` pattern, consumed correlations never pin more
// than the batch being drawn from.
//
// Refill parallelism lives inside the source, not the pool: a source
// built from a ferret endpoint with Options.Workers > 1 shards each
// Extend's local phases across cores, so one background refill
// goroutine is enough to saturate the host — the pool never runs two
// refills of one stream concurrently (protocol iterations are
// inherently sequential on a conn).
package pool

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"ironman/internal/block"
)

// ErrClosed is returned by draws on a closed pool.
var ErrClosed = errors.New("pool: closed")

// ErrRetained is returned by a Dealt draw that cannot be satisfied
// because the paired half has hit its retention cap: generating more
// would grow the undrawn half without bound. Drain the other half or
// close the pool.
var ErrRetained = errors.New("pool: paired half at retention cap")

// ErrDry is the typed shed for a blocked draw that ran into the pool's
// backpressure bounds: generation is behind demand and either the draw
// waited Config.MaxWait without being satisfied or Config.MaxWaiters
// draws were already queued. The draw consumed nothing; the caller can
// retry, back off, or surface the shed (the otserv dispenser maps it
// to its typed pool-dry protocol status). Never returned when both
// bounds are disabled.
var ErrDry = errors.New("pool: dry")

// Config tunes a pool.
type Config struct {
	// Depth is the number of source batches kept generated ahead of
	// demand (the high-water mark, in batches). 0 disables the
	// background worker: draws run the source inline on the calling
	// goroutine, which is the synchronous seed behaviour.
	Depth int
	// LowWater is the ready-correlation count that triggers a
	// background refill. 0 selects half the high-water mark. Ignored
	// when Depth == 0.
	LowWater int
	// MaxBuffered caps how many ready correlations either half of a
	// Dealt pool may retain (correlations are pairwise, so a consumer
	// that drains only one half grows the other with every refill).
	// When the cap blocks generation, draws on the starved half fail
	// with ErrRetained instead of exhausting memory. 0 selects
	// (Depth+8) batches; negative disables the cap. Ignored by Sender
	// and Receiver pools, whose single buffer is bounded by demand.
	MaxBuffered int
	// MaxWait bounds how long one blocked draw waits for generation
	// before shedding with ErrDry; 0 waits forever. A serving layer
	// sets this so a draw storm degrades into typed rejections instead
	// of an unbounded convoy. Ignored when Depth == 0 (the draw runs
	// the source inline and is bounded by the source itself).
	MaxWait time.Duration
	// MaxWaiters bounds how many draws may be blocked on generation at
	// once; a draw that would become waiter MaxWaiters+1 sheds
	// immediately with ErrDry. 0 disables the bound.
	MaxWaiters int
	// Obs mirrors this pool's counters into a metrics registry (for a
	// Dealt pool: the sender half). nil disables mirroring.
	Obs *Observer
	// ObsReceiver is the receiver half's observer of a Dealt pool;
	// ignored by Sender and Receiver pools.
	ObsReceiver *Observer
}

// Stats are one pool's lifetime counters. All counts are correlations
// unless noted.
type Stats struct {
	Generated    uint64        // produced by the source
	Dispensed    uint64        // handed to callers
	Refills      uint64        // source invocations
	Draws        uint64        // draw calls
	BlockedDraws uint64        // draws that had to wait for generation
	BlockedTime  time.Duration // total time draws spent waiting
	Buffered     int           // ready correlations right now
}

// core holds the state shared by all pool flavours. Methods are called
// with mu held unless noted.
type core struct {
	mu      sync.Mutex
	cond    *sync.Cond
	cfg     Config
	batch   int // observed source batch size; 0 until the first refill
	filling bool
	demand  int // largest unsatisfied draw, 0 when none waits
	waiters int // draws currently blocked on generation
	err     error
	closed  bool
	wg      sync.WaitGroup
}

func (c *core) init(cfg Config) {
	c.cfg = cfg
	c.cond = sync.NewCond(&c.mu)
	c.filling = true // prefetch to high water right away
}

// needRefill decides whether the worker should run the source, given
// the current ready count (of the most-depleted buffer).
func (c *core) needRefill(ready int) bool {
	if c.closed || c.err != nil {
		return false
	}
	if c.demand > ready {
		return true
	}
	if c.batch == 0 {
		return true // bootstrap: no batch size known yet
	}
	hw := c.cfg.Depth * c.batch
	lw := c.cfg.LowWater
	if lw <= 0 {
		lw = hw / 2
	}
	if lw > hw {
		lw = hw
	}
	if c.filling {
		if ready < hw {
			return true
		}
		c.filling = false
		return false
	}
	if ready < lw {
		c.filling = true
		return true
	}
	return false
}

// noteBatch records a completed refill of n correlations.
func (c *core) noteBatch(n int) error {
	if c.batch == 0 {
		if n == 0 {
			return errors.New("pool: source produced an empty batch")
		}
		c.batch = n
	}
	return nil
}

// runWorker is the background refill loop. ready and refill are
// supplied by the concrete pool; refill runs the (interactive) source
// outside the lock and appends under it.
func (c *core) runWorker(ready func() int, refill func() error) {
	defer c.wg.Done()
	for {
		c.mu.Lock()
		for !c.closed && c.err == nil && !c.needRefill(ready()) {
			c.cond.Wait()
		}
		stop := c.closed || c.err != nil
		c.mu.Unlock()
		if stop {
			return
		}
		err := refill()
		c.mu.Lock()
		if err != nil {
			c.err = err
		}
		c.cond.Broadcast()
		c.mu.Unlock()
		if err != nil {
			return
		}
	}
}

// await blocks until ready() >= n, the pool closes, the source fails,
// stalled (optional) reports that generation cannot proceed, or the
// backpressure bounds (Config.MaxWait / MaxWaiters) shed the draw with
// ErrDry. Returns with mu held. stats is the half being drawn from;
// pending (optional) mirrors the unmet demand for that half so cap
// accounting can discount correlations a waiting draw is about to
// consume. Waiters re-assert demand every iteration, so clearing it on
// exit is safe with other draws still queued.
func (c *core) await(n int, ready func() int, stats *Stats, o *Observer, stalled func() error, pending *int) error {
	blocked := false
	var begin, deadline time.Time
	var timer *time.Timer
	defer func() {
		if blocked {
			d := time.Since(begin)
			stats.BlockedTime += d
			o.noteBlockedTime(d)
			c.waiters--
			if timer != nil {
				timer.Stop()
			}
		}
		c.demand = 0
		if pending != nil {
			*pending = 0
		}
	}()
	for ready() < n {
		if c.closed {
			return ErrClosed
		}
		if c.err != nil {
			return c.err
		}
		if n > c.demand {
			c.demand = n
		}
		if pending != nil && n > *pending {
			*pending = n
		}
		if stalled != nil {
			if err := stalled(); err != nil {
				o.noteStalled()
				return err
			}
		}
		if !blocked {
			if c.cfg.MaxWaiters > 0 && c.waiters >= c.cfg.MaxWaiters {
				o.noteStalled()
				return fmt.Errorf("%w: %d draws already waiting on generation", ErrDry, c.waiters)
			}
			blocked = true
			c.waiters++
			stats.BlockedDraws++
			o.noteBlockedDraw()
			begin = time.Now()
			if c.cfg.MaxWait > 0 {
				deadline = begin.Add(c.cfg.MaxWait)
				// The timer only wakes the wait loop; the deadline
				// check below decides. Broadcast under the lock so
				// the wakeup cannot slip between the check and Wait.
				timer = time.AfterFunc(c.cfg.MaxWait, func() {
					c.mu.Lock()
					c.cond.Broadcast()
					c.mu.Unlock()
				})
			}
		} else if !deadline.IsZero() && !time.Now().Before(deadline) {
			o.noteStalled()
			return fmt.Errorf("%w: draw of %d waited %v for generation", ErrDry, n, c.cfg.MaxWait)
		}
		c.cond.Broadcast() // wake the worker
		c.cond.Wait()
	}
	return nil
}

// close marks the pool closed and waits for the worker to exit. If the
// worker is mid-iteration inside an interactive source, close blocks
// until that iteration completes; interrupt a wedged iteration by
// closing the underlying conn first.
func (c *core) close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	c.cond.Broadcast()
	c.mu.Unlock()
	c.wg.Wait()
}

// fifo is a draining queue of source batches. push keeps the batch
// slice as is, pop copies a draw out of the oldest batches, and a
// drained batch is dropped at once.
type fifo[T any] struct {
	buf   []T   // front batch
	head  int   // drawn prefix of buf
	queue [][]T // batches behind buf, oldest first
	n     int   // ready elements
}

func (f *fifo[T]) ready() int { return f.n }

func (f *fifo[T]) push(batch []T) {
	f.queue = append(f.queue, batch)
	f.n += len(batch)
}

// pop copies out the next n elements; n must not exceed ready().
func (f *fifo[T]) pop(n int) []T {
	out := make([]T, n)
	for off := 0; off < n; {
		if f.head == len(f.buf) {
			f.buf, f.head = f.queue[0], 0
			f.queue[0] = nil
			f.queue = f.queue[1:]
		}
		k := copy(out[off:], f.buf[f.head:])
		f.head += k
		off += k
	}
	if f.head == len(f.buf) {
		f.buf, f.head = nil, 0
	}
	f.n -= n
	return out
}

// blockBuf buffers r0 (or r_b) blocks.
type blockBuf = fifo[block.Block]

// bitBuf is the receiver-half twin: choice bits plus r_b blocks,
// queued and drawn in lockstep.
type bitBuf struct {
	bits   fifo[bool]
	blocks fifo[block.Block]
}

func (b *bitBuf) ready() int { return b.bits.ready() }

func (b *bitBuf) push(bits []bool, blocks []block.Block) {
	b.bits.push(bits)
	b.blocks.push(blocks)
}

func (b *bitBuf) pop(n int) ([]bool, []block.Block) {
	return b.bits.pop(n), b.blocks.pop(n)
}

// SenderRefill produces one batch of sender-half correlations
// (r0 blocks under the pool owner's Δ). ferret.(*Sender).Extend fits.
// The pool keeps the returned slices, so every refill (of any flavour)
// must return fresh ones.
type SenderRefill func() ([]block.Block, error)

// Sender buffers the sender half of a correlation stream.
type Sender struct {
	core
	src   SenderRefill
	buf   blockBuf
	stats Stats
}

// NewSender builds a pool over src. With cfg.Depth > 0 a background
// worker starts prefetching immediately.
func NewSender(src SenderRefill, cfg Config) *Sender {
	p := &Sender{src: src}
	p.init(cfg)
	if cfg.Depth > 0 {
		p.wg.Add(1)
		go p.runWorker(p.buf.ready, p.refill)
	}
	return p
}

// ingest appends one source batch; called with mu held. dur is how
// long the source ran (observability only).
func (p *Sender) ingest(z []block.Block, dur time.Duration) error {
	if err := p.noteBatch(len(z)); err != nil {
		return err
	}
	p.buf.push(z)
	p.stats.Refills++
	p.stats.Generated += uint64(len(z))
	p.cfg.Obs.noteRefill(len(z), p.buf.ready(), dur)
	return nil
}

// refill runs one source batch; called by the worker outside the lock.
func (p *Sender) refill() error {
	begin := time.Now()
	z, err := p.src()
	if err != nil {
		return err
	}
	dur := time.Since(begin)
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.ingest(z, dur)
}

// COTs draws n correlations, waiting for (or, when Depth == 0,
// running) generation as needed. The returned slice is owned by the
// caller.
func (p *Sender) COTs(n int) ([]block.Block, error) {
	if n < 0 {
		return nil, fmt.Errorf("pool: negative draw %d", n)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.stats.Draws++
	p.cfg.Obs.noteDraw()
	if p.closed {
		return nil, ErrClosed
	}
	if p.cfg.Depth <= 0 {
		for p.buf.ready() < n {
			if p.err != nil {
				return nil, p.err
			}
			begin := time.Now()
			z, err := p.src()
			if err == nil {
				err = p.ingest(z, time.Since(begin))
			}
			if err != nil {
				p.err = err
				return nil, err
			}
		}
	} else if err := p.await(n, p.buf.ready, &p.stats, p.cfg.Obs, nil, nil); err != nil {
		return nil, err
	}
	out := p.buf.pop(n)
	p.stats.Dispensed += uint64(n)
	p.cfg.Obs.noteDispensed(n, p.buf.ready())
	p.cond.Broadcast() // the draw may have crossed the low-water mark
	return out, nil
}

// Stats snapshots the counters.
func (p *Sender) Stats() Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	s := p.stats
	s.Buffered = p.buf.ready()
	return s
}

// Close stops the worker and fails subsequent draws. See core.close
// for the in-flight-iteration caveat.
func (p *Sender) Close() error {
	p.close()
	return nil
}

// ReceiverRefill produces one batch of receiver-half correlations
// (choice bits and r_b blocks).
type ReceiverRefill func() ([]bool, []block.Block, error)

// Receiver buffers the receiver half of a correlation stream.
type Receiver struct {
	core
	src   ReceiverRefill
	buf   bitBuf
	stats Stats
}

// NewReceiver builds a pool over src; see NewSender.
func NewReceiver(src ReceiverRefill, cfg Config) *Receiver {
	p := &Receiver{src: src}
	p.init(cfg)
	if cfg.Depth > 0 {
		p.wg.Add(1)
		go p.runWorker(p.buf.ready, p.refill)
	}
	return p
}

// ingest appends one source batch; called with mu held.
func (p *Receiver) ingest(bits []bool, blocks []block.Block, dur time.Duration) error {
	if len(bits) != len(blocks) {
		return fmt.Errorf("pool: source bits/blocks mismatch %d/%d", len(bits), len(blocks))
	}
	if err := p.noteBatch(len(bits)); err != nil {
		return err
	}
	p.buf.push(bits, blocks)
	p.stats.Refills++
	p.stats.Generated += uint64(len(bits))
	p.cfg.Obs.noteRefill(len(bits), p.buf.ready(), dur)
	return nil
}

func (p *Receiver) refill() error {
	begin := time.Now()
	bits, blocks, err := p.src()
	if err != nil {
		return err
	}
	dur := time.Since(begin)
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.ingest(bits, blocks, dur)
}

// COTs draws n correlations: choice bits and matching r_b blocks.
func (p *Receiver) COTs(n int) ([]bool, []block.Block, error) {
	if n < 0 {
		return nil, nil, fmt.Errorf("pool: negative draw %d", n)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.stats.Draws++
	p.cfg.Obs.noteDraw()
	if p.closed {
		return nil, nil, ErrClosed
	}
	if p.cfg.Depth <= 0 {
		for p.buf.ready() < n {
			if p.err != nil {
				return nil, nil, p.err
			}
			begin := time.Now()
			bits, blocks, err := p.src()
			if err == nil {
				err = p.ingest(bits, blocks, time.Since(begin))
			}
			if err != nil {
				p.err = err
				return nil, nil, err
			}
		}
	} else if err := p.await(n, p.buf.ready, &p.stats, p.cfg.Obs, nil, nil); err != nil {
		return nil, nil, err
	}
	bits, blocks := p.buf.pop(n)
	p.stats.Dispensed += uint64(n)
	p.cfg.Obs.noteDispensed(n, p.buf.ready())
	p.cond.Broadcast()
	return bits, blocks, nil
}

// Stats snapshots the counters.
func (p *Receiver) Stats() Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	s := p.stats
	s.Buffered = p.buf.ready()
	return s
}

// Close stops the worker and fails subsequent draws.
func (p *Receiver) Close() error {
	p.close()
	return nil
}

// DealtRefill produces one batch of dealt correlations: the sender
// half (z) and the receiver half (bits, y), with z = y ⊕ b·Δ. The
// source may be a correlation dealer (cot.Deal, what otserv sessions
// use) or one lockstep iteration of an in-process protocol pair
// (ironman.NewDealtPair).
type DealtRefill func() (z []block.Block, bits []bool, y []block.Block, err error)

// Dealt buffers both halves of an in-process dealt correlation stream
// under a single worker, so sender-half and receiver-half draws can
// proceed at independent rates while the source produces both halves
// together. Refills trigger on the more depleted half.
// Correlations are pairwise, so an undrawn half retains every refill;
// Config.MaxBuffered bounds that growth, failing draws on the starved
// half with ErrRetained once the cap blocks generation (see
// DESIGN.md).
type Dealt struct {
	core
	src    DealtRefill
	sbuf   blockBuf
	rbuf   bitBuf
	sstats Stats
	rstats Stats
	// Unmet draw demand per half (mu held); capBlocked discounts it so
	// correlations a waiting draw will immediately consume don't count
	// as retained.
	demandS int
	demandR int
}

// NewDealt builds the two-halves pool; see NewSender for Depth
// semantics.
func NewDealt(src DealtRefill, cfg Config) *Dealt {
	p := &Dealt{src: src}
	p.init(cfg)
	if cfg.Depth > 0 {
		p.wg.Add(1)
		go p.runWorker(p.workerReady, p.refill)
	}
	return p
}

func (p *Dealt) minReady() int {
	s, r := p.sbuf.ready(), p.rbuf.ready()
	if r < s {
		return r
	}
	return s
}

// retentionCap resolves Config.MaxBuffered (mu held): the per-half
// correlation limit, or -1 while unlimited/unknown.
func (p *Dealt) retentionCap() int {
	if p.cfg.MaxBuffered < 0 || p.batch == 0 {
		return -1
	}
	if p.cfg.MaxBuffered > 0 {
		return p.cfg.MaxBuffered
	}
	return (p.cfg.Depth + 8) * p.batch
}

// capBlocked reports (mu held) whether another refill would push the
// fuller half past the retention cap. Pending draw demand is
// discounted: a half that a blocked draw is about to drain is not
// "retained", so a large lockstep draw on both halves never trips the
// cap.
func (p *Dealt) capBlocked() bool {
	limit := p.retentionCap()
	if limit < 0 {
		return false
	}
	max := p.sbuf.ready() - p.demandS
	if r := p.rbuf.ready() - p.demandR; r > max {
		max = r
	}
	return max+p.batch > limit
}

// workerReady is the worker's view of the ready count: while the
// retention cap blocks generation it reports "plenty", parking the
// worker regardless of demand on the starved half (draws there fail
// with ErrRetained instead).
func (p *Dealt) workerReady() int {
	if p.capBlocked() {
		return int(^uint(0) >> 1)
	}
	return p.minReady()
}

// stalled is the await hook: a draw that still needs correlations
// while the cap blocks generation can never be satisfied.
func (p *Dealt) stalled() error {
	if p.capBlocked() {
		return fmt.Errorf("%w (max %d buffered)", ErrRetained, p.retentionCap())
	}
	return nil
}

func (p *Dealt) refill() error {
	begin := time.Now()
	z, bits, y, err := p.src()
	if err != nil {
		return err
	}
	dur := time.Since(begin)
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.ingest(z, bits, y, dur)
}

// ingest appends one lockstep batch to both halves; called with mu
// held.
func (p *Dealt) ingest(z []block.Block, bits []bool, y []block.Block, dur time.Duration) error {
	if len(z) != len(bits) || len(z) != len(y) {
		return fmt.Errorf("pool: dealt source length mismatch %d/%d/%d", len(z), len(bits), len(y))
	}
	if err := p.noteBatch(len(z)); err != nil {
		return err
	}
	p.sbuf.push(z)
	p.rbuf.push(bits, y)
	p.sstats.Refills++
	p.rstats.Refills++
	p.sstats.Generated += uint64(len(z))
	p.rstats.Generated += uint64(len(z))
	p.cfg.Obs.noteRefill(len(z), p.sbuf.ready(), dur)
	p.cfg.ObsReceiver.noteRefill(len(z), p.rbuf.ready(), dur)
	return nil
}

func (p *Dealt) syncFill(need func() int, o *Observer) error {
	for need() < 0 {
		if p.closed {
			return ErrClosed
		}
		if p.err != nil {
			return p.err
		}
		if err := p.stalled(); err != nil {
			o.noteStalled()
			return err
		}
		begin := time.Now()
		z, bits, y, err := p.src()
		if err == nil {
			err = p.ingest(z, bits, y, time.Since(begin))
		}
		if err != nil {
			p.err = err
			return err
		}
	}
	return nil
}

// Warm blocks until the background worker has filled both halves to
// the high-water mark, the pool closes, or the source fails (draws
// then report the failure). It returns at once when Depth is 0.
func (p *Dealt) Warm() {
	p.mu.Lock()
	defer p.mu.Unlock()
	for p.cfg.Depth > 0 && !p.closed && p.err == nil &&
		(p.batch == 0 || p.workerReady() < p.cfg.Depth*p.batch) {
		p.cond.Wait()
	}
}

// SenderCOTs draws n sender-half correlations (r0 blocks).
func (p *Dealt) SenderCOTs(n int) ([]block.Block, error) {
	if n < 0 {
		return nil, fmt.Errorf("pool: negative draw %d", n)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.sstats.Draws++
	p.cfg.Obs.noteDraw()
	if p.closed {
		return nil, ErrClosed
	}
	if p.cfg.Depth <= 0 {
		p.demandS = n
		err := p.syncFill(func() int { return p.sbuf.ready() - n }, p.cfg.Obs)
		p.demandS = 0
		if err != nil {
			return nil, err
		}
	} else if err := p.await(n, p.sbuf.ready, &p.sstats, p.cfg.Obs, p.stalled, &p.demandS); err != nil {
		return nil, err
	}
	out := p.sbuf.pop(n)
	p.sstats.Dispensed += uint64(n)
	p.cfg.Obs.noteDispensed(n, p.sbuf.ready())
	p.cond.Broadcast()
	return out, nil
}

// ReceiverCOTs draws n receiver-half correlations (bits, r_b blocks).
func (p *Dealt) ReceiverCOTs(n int) ([]bool, []block.Block, error) {
	if n < 0 {
		return nil, nil, fmt.Errorf("pool: negative draw %d", n)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.rstats.Draws++
	p.cfg.ObsReceiver.noteDraw()
	if p.closed {
		return nil, nil, ErrClosed
	}
	if p.cfg.Depth <= 0 {
		p.demandR = n
		err := p.syncFill(func() int { return p.rbuf.ready() - n }, p.cfg.ObsReceiver)
		p.demandR = 0
		if err != nil {
			return nil, nil, err
		}
	} else if err := p.await(n, p.rbuf.ready, &p.rstats, p.cfg.ObsReceiver, p.stalled, &p.demandR); err != nil {
		return nil, nil, err
	}
	bits, blocks := p.rbuf.pop(n)
	p.rstats.Dispensed += uint64(n)
	p.cfg.ObsReceiver.noteDispensed(n, p.rbuf.ready())
	p.cond.Broadcast()
	return bits, blocks, nil
}

// Stats snapshots both halves' counters.
func (p *Dealt) Stats() (sender, receiver Stats) {
	p.mu.Lock()
	defer p.mu.Unlock()
	s, r := p.sstats, p.rstats
	s.Buffered = p.sbuf.ready()
	r.Buffered = p.rbuf.ready()
	return s, r
}

// Close stops the worker and fails subsequent draws.
func (p *Dealt) Close() error {
	p.close()
	return nil
}

// SenderSource is the exported drawer contract for the sender half of
// a correlation stream: anything that dispenses r0 blocks under one Δ.
// The prefetching Sender pool, a Dealt pair's SenderHalf, and the
// otserv remote dispenser client all satisfy it, so consumers (the
// ironman endpoints, serving layers) program against one shape
// regardless of where correlations come from.
type SenderSource interface {
	// COTs draws n correlations' r0 blocks (r1 = r0 ⊕ Δ implied).
	COTs(n int) ([]block.Block, error)
	// Stats snapshots this drawer's pool counters.
	Stats() Stats
	// Close releases the drawer (stops workers / closes sessions);
	// draws after Close fail.
	Close() error
}

// ReceiverSource is the receiver-half drawer contract: choice bits and
// the matching r_b blocks. Same implementations as SenderSource.
type ReceiverSource interface {
	COTs(n int) ([]bool, []block.Block, error)
	Stats() Stats
	Close() error
}

// The prefetching pools satisfy the drawer contracts directly.
var (
	_ SenderSource   = (*Sender)(nil)
	_ ReceiverSource = (*Receiver)(nil)
)

// senderHalf / receiverHalf adapt one shared Dealt to the drawer
// contracts. Close on either half closes the shared pool (idempotent),
// since a dealt pair's generator serves both directions.
type senderHalf struct{ d *Dealt }

func (h senderHalf) COTs(n int) ([]block.Block, error) { return h.d.SenderCOTs(n) }
func (h senderHalf) Stats() Stats                      { s, _ := h.d.Stats(); return s }
func (h senderHalf) Close() error                      { return h.d.Close() }

type receiverHalf struct{ d *Dealt }

func (h receiverHalf) COTs(n int) ([]bool, []block.Block, error) { return h.d.ReceiverCOTs(n) }
func (h receiverHalf) Stats() Stats                              { _, r := h.d.Stats(); return r }
func (h receiverHalf) Close() error                              { return h.d.Close() }

// SenderHalf views the dealt pair's sender direction as a standalone
// drawer; Close closes the SHARED generator, stopping both halves.
func (p *Dealt) SenderHalf() SenderSource { return senderHalf{p} }

// ReceiverHalf is the receiver-direction view; the same shared-Close
// caveat applies.
func (p *Dealt) ReceiverHalf() ReceiverSource { return receiverHalf{p} }
