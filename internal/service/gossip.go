package service

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/schedule"
)

// Gossip tuning: the per-peer queue bound and the per-push time budget.
const (
	// DefaultGossipQueue is the per-peer bound on queued warm batches when
	// GossiperOptions.QueueBound is unset. A peer that falls further behind
	// drops batches (counted) instead of queueing them.
	DefaultGossipQueue = 16
	// gossipPushTimeout bounds one warm push to one peer, so a black-holed
	// peer cannot pin its push worker (and with it the peer's whole queue)
	// forever.
	gossipPushTimeout = 30 * time.Second
)

// Gossiper pushes freshly computed rows to peer servers' /v1/warm
// endpoints — push gossip, so a fleet's caches converge on one warm
// working set without a shard in the loop. Offer never blocks: each peer
// has a bounded queue drained by its own push worker, and a batch that
// finds a peer's queue full is dropped for that peer and counted, never
// waited on. A dead or slow peer therefore costs dropped warm batches,
// not serving latency.
//
// Construct with NewGossiper; Close stops the workers after draining what
// was already queued.
type Gossiper struct {
	peers []*gossipPeer
	wg    sync.WaitGroup

	mu     sync.RWMutex // guards closed vs concurrent Offer
	closed bool

	enqueued atomic.Int64
	dropped  atomic.Int64
	sentRows atomic.Int64
	errors   atomic.Int64
}

// gossipPeer is one peer's bounded queue and the warmer that drains it.
type gossipPeer struct {
	warmer schedule.RowWarmer
	queue  chan []schedule.WarmEntry
}

// GossiperOptions configures NewGossiper.
type GossiperOptions struct {
	// QueueBound is the per-peer bound on queued warm batches (≤ 0 selects
	// DefaultGossipQueue).
	QueueBound int
}

// NewGossiper builds a gossiper pushing to the peers — normally
// service.Clients for the sibling servers — each behind its own bounded
// queue and push worker.
func NewGossiper(opt GossiperOptions, peers ...schedule.RowWarmer) *Gossiper {
	bound := opt.QueueBound
	if bound <= 0 {
		bound = DefaultGossipQueue
	}
	g := &Gossiper{}
	for _, p := range peers {
		gp := &gossipPeer{warmer: p, queue: make(chan []schedule.WarmEntry, bound)}
		g.peers = append(g.peers, gp)
		g.wg.Add(1)
		go g.push(gp)
	}
	return g
}

// push is one peer's worker: it drains the queue, one bounded WarmRows
// round-trip per batch. Push failures count; the worker keeps going —
// gossip is best-effort and the peer may recover.
func (g *Gossiper) push(p *gossipPeer) {
	defer g.wg.Done()
	for entries := range p.queue {
		ctx, cancel := context.WithTimeout(context.Background(), gossipPushTimeout)
		n, err := p.warmer.WarmRows(ctx, entries)
		cancel()
		if err != nil {
			g.errors.Add(1)
			continue
		}
		g.sentRows.Add(int64(n))
	}
}

// Offer enqueues one warm batch toward every peer, without ever blocking:
// a peer whose queue is full just doesn't get this batch (dropped and
// counted). Safe for concurrent use; a closed gossiper drops the batch for
// every peer and counts it, so a loss on drain shows on /metrics.
func (g *Gossiper) Offer(entries []schedule.WarmEntry) {
	if len(entries) == 0 {
		return
	}
	g.mu.RLock()
	defer g.mu.RUnlock()
	if g.closed {
		g.dropped.Add(int64(len(g.peers)))
		return
	}
	for _, p := range g.peers {
		select {
		case p.queue <- entries:
			g.enqueued.Add(1)
		default:
			g.dropped.Add(1)
		}
	}
}

// Close stops accepting offers, lets the workers drain what was already
// queued (each push still bounded by the push timeout), and waits for them
// to exit. Safe to call more than once.
func (g *Gossiper) Close() {
	g.mu.Lock()
	if g.closed {
		g.mu.Unlock()
		return
	}
	g.closed = true
	for _, p := range g.peers {
		close(p.queue)
	}
	g.mu.Unlock()
	g.wg.Wait()
}

// GossipStats is a snapshot of a Gossiper's cumulative counters.
type GossipStats struct {
	// EnqueuedBatches counts batches accepted into a peer queue (one batch
	// offered to three peers counts up to three).
	EnqueuedBatches int64
	// DroppedBatches counts batches dropped because a peer's queue was
	// full — the backpressure outcome — or because they were offered after
	// Close.
	DroppedBatches int64
	// SentRows counts rows peers acknowledged storing.
	SentRows int64
	// Errors counts failed pushes (the whole batch, not per row).
	Errors int64
}

// Stats returns a snapshot of the gossiper's counters.
func (g *Gossiper) Stats() GossipStats {
	return GossipStats{
		EnqueuedBatches: g.enqueued.Load(),
		DroppedBatches:  g.dropped.Load(),
		SentRows:        g.sentRows.Load(),
		Errors:          g.errors.Load(),
	}
}
