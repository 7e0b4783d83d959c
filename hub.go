package adhocga

import (
	"context"
	"encoding/json"
	"errors"
	"log/slog"
	"sort"
	"sync"
	"time"
)

// The streaming hub. Every Job owns one: a single producer (the spec's run
// goroutine) appends events into a fixed-capacity ring buffer with an
// incrementally-compacted snapshot (the latest generation/islands/churn
// event per stream, plus the latest replicate and the terminal event), and
// any number of subscribers follow through bounded send channels with an
// explicit backpressure policy. This replaces the per-subscriber
// full-replay append-only log: a job's event memory is bounded by the ring
// regardless of how long it runs, and a slow reader can never stall the
// producer past the configured deadline — it is either resynced from the
// snapshot (live viewers) or evicted (archival readers that stopped
// draining).
//
// Determinism contract: event contents, Seq numbering, and emission order
// are exactly what the append-only log produced. A replay subscription on
// a finished job whose total event count fits the ring is byte-identical
// to the historical full replay (the NDJSON goldens pin this); a longer
// job replays as compacted snapshot + ring tail — same final state, gaps
// in Seq where compaction dropped superseded per-stream events.

// Hub sizing defaults, applied by HubConfig.withDefaults.
const (
	// DefaultRingSize is the default number of events a job retains for
	// replay and slow-subscriber catch-up.
	DefaultRingSize = 1024
	// DefaultSubscriberBuffer is the default capacity of each
	// subscriber's send channel.
	DefaultSubscriberBuffer = 64
	// DefaultBlockDeadline is the default longest a producer waits for a
	// BlockWithDeadline subscriber before evicting it.
	DefaultBlockDeadline = time.Second
)

// HubConfig sizes a job's streaming hub. The zero value means "all
// defaults"; fields are independent.
type HubConfig struct {
	// RingSize is the number of events retained in the ring buffer. The
	// ring bounds both replay depth and per-job event memory. It grows
	// geometrically up to this cap while the job runs, so short jobs stay
	// small, and when the job ends it shrinks to exactly the events it
	// holds: a finished job keeps min(events, RingSize) slots. ≤0 means
	// DefaultRingSize.
	RingSize int
	// SubscriberBuffer is each subscriber's send-channel capacity —
	// the slack a consumer gets before its backpressure policy engages.
	// ≤0 means DefaultSubscriberBuffer.
	SubscriberBuffer int
	// BlockDeadline is the longest one append waits for a
	// BlockWithDeadline subscriber whose unread events would be
	// overwritten; past it the laggard is evicted and the producer moves
	// on. ≤0 means DefaultBlockDeadline.
	BlockDeadline time.Duration
}

func (c HubConfig) withDefaults() HubConfig {
	if c.RingSize <= 0 {
		c.RingSize = DefaultRingSize
	}
	if c.SubscriberBuffer <= 0 {
		c.SubscriberBuffer = DefaultSubscriberBuffer
	}
	if c.BlockDeadline <= 0 {
		c.BlockDeadline = DefaultBlockDeadline
	}
	return c
}

// Backpressure is a subscriber's policy for the moment the producer laps
// it: the ring is full and the next append would overwrite events the
// subscriber has not received yet.
type Backpressure int

const (
	// BlockWithDeadline makes the producer wait (up to the hub's
	// BlockDeadline) for the subscriber to advance before overwriting its
	// unread events, then evicts it with ErrSlowSubscriber if it still
	// has not moved. This is the archival policy: the NDJSON event path
	// and the CLIs use it so an actively-draining consumer sees every
	// event with no gaps.
	BlockWithDeadline Backpressure = iota
	// DropResync never blocks the producer: a lapped subscriber skips
	// ahead — it receives the compacted snapshot of the range it missed
	// (latest event per stream, original Seq numbers) and resumes from
	// the oldest ring entry. This is the live-viewer policy: SSE and
	// WebSocket watchers stay current instead of stalling the job.
	DropResync
)

// ErrSlowSubscriber is the terminal error of a subscription evicted by
// backpressure: the consumer stopped draining and its policy forbade
// skipping ahead.
var ErrSlowSubscriber = errors.New("adhocga: subscriber evicted: not draining within the backpressure deadline")

// SubscribeOptions configure one Job.Subscribe call. The zero value is the
// archival subscription: replay from the oldest retained event with the
// BlockWithDeadline policy.
type SubscribeOptions struct {
	// From is the first sequence number to deliver (0 = from the start).
	// Resuming after the last event a client saw (SSE Last-Event-ID,
	// WebSocket ?after=) means From = lastSeen+1. Events already
	// compacted out of the ring are delivered as the snapshot of the
	// missed range.
	From int
	// Live skips history: the subscriber first receives the current
	// compacted snapshot (the latest event per stream so far) and then
	// follows new events as they are emitted. From is ignored.
	Live bool
	// Policy is the backpressure policy; the zero value is
	// BlockWithDeadline.
	Policy Backpressure
	// Buffer overrides the hub's per-subscriber send-channel capacity
	// for this subscription; ≤0 uses the hub default.
	Buffer int
}

// Subscription is one subscriber's handle: receive from C until it closes,
// then ask Err why. All methods are safe for concurrent use.
type Subscription struct {
	// C delivers the subscription's events in Seq order. It is closed
	// after the terminal KindDone event, on detach (context cancelled),
	// or on eviction.
	C <-chan Event

	hub *hub
	sub *subscriber
}

// Err reports how the subscription ended: nil while live or after a
// complete stream (terminal event delivered), ErrSlowSubscriber after a
// backpressure eviction, the context's error after a detach.
func (s *Subscription) Err() error {
	s.hub.mu.Lock()
	defer s.hub.mu.Unlock()
	return s.sub.err
}

// Resyncs returns how many times the subscription fell behind the ring and
// skipped ahead via the snapshot (always 0 for BlockWithDeadline).
func (s *Subscription) Resyncs() int {
	s.hub.mu.Lock()
	defer s.hub.mu.Unlock()
	return s.sub.resyncs
}

// Dropped returns how many events the subscription skipped over across all
// resyncs (events superseded in the snapshot it received instead).
func (s *Subscription) Dropped() int {
	s.hub.mu.Lock()
	defer s.hub.mu.Unlock()
	return s.sub.dropped
}

// StreamStats is a job hub's observability counters.
type StreamStats struct {
	// Emitted is the total number of events the job has emitted (Seq of
	// the next event). Retained is how many of them are still replayable
	// from snapshot + ring.
	Emitted  int
	Retained int
	// Overwritten is how many emitted events the ring has lapped over —
	// they survive only as compacted snapshot entries. Emitted minus
	// Overwritten is the ring occupancy.
	Overwritten int
	// Subscribers is the number of currently-attached subscriptions.
	Subscribers int
	// Resyncs and Evictions count backpressure actions over the job's
	// lifetime.
	Resyncs   int
	Evictions int
	// MaxStall is the longest a single append waited on BlockWithDeadline
	// subscribers — bounded by HubConfig.BlockDeadline (+ scheduling
	// noise) by construction.
	MaxStall time.Duration
}

// streamKey identifies one compaction stream: the latest event per key is
// what the snapshot keeps. Generation/islands/churn events compact per
// (scenario, rep); replicate and done are job-wide.
type streamKey struct {
	kind     EventKind
	scenario int
	rep      int
}

func compactionKey(e Event) streamKey {
	switch e.Kind {
	case KindGeneration:
		return streamKey{kind: e.Kind, scenario: e.Generation.Scenario, rep: e.Generation.Rep}
	case KindIslands:
		return streamKey{kind: e.Kind, scenario: e.Islands.Scenario, rep: e.Islands.Rep}
	case KindChurn:
		return streamKey{kind: e.Kind, scenario: e.Churn.Scenario, rep: e.Churn.Rep}
	default: // replicate, done
		return streamKey{kind: e.Kind}
	}
}

// subscriber is the hub-internal state of one subscription.
type subscriber struct {
	out    chan Event
	policy Backpressure
	quit   chan struct{} // closed on eviction; wakes a blocked pump send

	cursor  int  // next Seq to deliver
	syncTo  int  // when > cursor: snapshot the range [cursor, syncTo) then jump
	initial bool // the pending sync is the live-attach one, not a fall-behind
	err     error
	resyncs int
	dropped int
}

// hub is a job's broadcast core. All mutable state is guarded by mu; the
// producer appends under it, subscriber pumps read batches under it and
// send outside it.
type hub struct {
	cfg    HubConfig
	jobID  string
	logger *slog.Logger

	mu       sync.Mutex
	ring     []Event  // circular; slot of seq s is s % len(ring); grows to cfg.RingSize, fit at the seal
	frames   [][]byte // nil, or the lazily-filled JSON encoding of each ring slot (nil = not encoded yet)
	start    int      // Seq of the oldest retained ring event
	total    int      // Seq of the next event (== events emitted)
	snap     map[streamKey]Event
	closed   bool          // terminal event appended; no more appends
	notify   chan struct{} // closed+replaced on every append
	progress chan struct{} // closed+replaced when a guarded subscriber advances or detaches

	subs      map[*subscriber]struct{}
	guarded   map[*subscriber]struct{} // the non-DropResync subset the producer must check
	resyncs   int
	evictions int
	maxStall  time.Duration
}

func newHub(jobID string, cfg HubConfig, logger *slog.Logger) *hub {
	if logger == nil {
		logger = slog.New(slog.DiscardHandler)
	}
	return &hub{
		cfg:      cfg.withDefaults(),
		jobID:    jobID,
		logger:   logger,
		snap:     map[streamKey]Event{},
		notify:   make(chan struct{}),
		progress: make(chan struct{}),
		subs:     map[*subscriber]struct{}{},
		guarded:  map[*subscriber]struct{}{},
	}
}

// relayoutLocked moves the retained events [start, total) into a ring of
// n ≥ total-start slots, so slot(seq) = seq % len(ring) keeps holding,
// and carries their cached frames along. Growth calls it on the way up
// to the configured cap; the seal calls it once to fit the ring to
// exactly what the finished job holds.
func (h *hub) relayoutLocked(n int) {
	ring := make([]Event, n)
	var frames [][]byte
	if h.frames != nil {
		frames = make([][]byte, n)
	}
	for seq := h.start; seq < h.total; seq++ {
		ring[seq%n] = h.ring[seq%len(h.ring)]
		if frames != nil {
			frames[seq%n] = h.frames[seq%len(h.ring)]
		}
	}
	h.ring = ring
	h.frames = frames
}

// releaseIdleFramesLocked drops the frame cache of a sealed hub nobody
// is subscribed to: no fan-out is left to share the bytes with, and
// frame() re-marshals on demand to the same bytes.
func (h *hub) releaseIdleFramesLocked() {
	if h.closed && len(h.subs) == 0 {
		h.frames = nil
	}
}

// append is the producer path: stamp, retain, compact, wake subscribers.
// terminal additionally seals the hub so nothing can be emitted after the
// done event. Appends on a sealed hub are dropped (matching the old
// emit-after-terminal semantics). The only blocking append can do is the
// guarded-subscriber wait, bounded by cfg.BlockDeadline.
func (h *hub) append(e Event, terminal bool) {
	var (
		timer     *time.Timer
		waitStart time.Time
		timedOut  bool
	)
	defer func() {
		if timer != nil {
			timer.Stop()
		}
	}()
	for {
		h.mu.Lock()
		if h.closed {
			h.mu.Unlock()
			return
		}
		if h.total-h.start == len(h.ring) && len(h.ring) < h.cfg.RingSize {
			h.relayoutLocked(min(max(2*len(h.ring), 64), h.cfg.RingSize))
		}
		// With the ring at capacity this append overwrites seq h.start;
		// guarded subscribers still sitting exactly there get their
		// policy applied. (A guarded cursor already below h.start means
		// the subscriber attached late; its pump resyncs it, the
		// producer owes it nothing.)
		var blocker *subscriber
		if h.total-h.start == len(h.ring) {
			for s := range h.guarded {
				if s.err == nil && s.cursor == h.start {
					if timedOut {
						h.evictLocked(s)
					} else {
						blocker = s
					}
				}
			}
		}
		if blocker != nil {
			progress := h.progress
			h.mu.Unlock()
			if timer == nil {
				waitStart = time.Now()
				timer = time.NewTimer(h.cfg.BlockDeadline)
			}
			select {
			case <-progress:
			case <-timer.C:
				timedOut = true
			}
			continue
		}
		if timer != nil {
			if stall := time.Since(waitStart); stall > h.maxStall {
				h.maxStall = stall
			}
		}
		e.Seq = h.total
		e.Job = h.jobID
		if h.total-h.start == len(h.ring) {
			h.start++
		}
		h.ring[e.Seq%len(h.ring)] = e
		// The slot's cached frame (if any) encoded the overwritten event;
		// the new occupant is encoded lazily on first fan-out. The cache is
		// nil until the first frame() store, so a job nobody streams never
		// allocates or touches it from the emit path.
		if h.frames != nil {
			h.frames[e.Seq%len(h.ring)] = nil
		}
		h.total++
		h.snap[compactionKey(e)] = e
		if terminal {
			// Sealed: nothing more is appended, so the ring shrinks to
			// the events it holds, and an unwatched job keeps no frames.
			h.closed = true
			h.releaseIdleFramesLocked()
			if n := h.total - h.start; n < len(h.ring) {
				h.relayoutLocked(n)
			}
		}
		close(h.notify)
		h.notify = make(chan struct{})
		h.mu.Unlock()
		return
	}
}

// evictLocked applies backpressure eviction to one subscriber.
func (h *hub) evictLocked(s *subscriber) {
	s.err = ErrSlowSubscriber
	close(s.quit)
	h.evictions++
	h.logger.Warn("subscriber evicted by backpressure",
		"job", h.jobID, "cursor", s.cursor, "evictions", h.evictions)
	// Leave removal from the maps to the pump, which owns the exit path;
	// the err guard keeps the producer from re-evicting meanwhile.
}

// removeLocked detaches a subscriber and wakes a producer that may have
// been waiting on it.
func (h *hub) removeLocked(s *subscriber) {
	if _, ok := h.subs[s]; !ok {
		return
	}
	delete(h.subs, s)
	delete(h.guarded, s)
	h.releaseIdleFramesLocked()
	close(h.progress)
	h.progress = make(chan struct{})
}

func (h *hub) remove(s *subscriber) {
	h.mu.Lock()
	h.removeLocked(s)
	h.mu.Unlock()
}

// fail records a detach reason (context cancellation) and removes.
func (h *hub) fail(s *subscriber, err error) {
	h.mu.Lock()
	if s.err == nil {
		s.err = err
	}
	h.removeLocked(s)
	h.mu.Unlock()
}

// advance moves a subscriber's cursor past one delivered ring event and,
// for guarded policies, signals the producer that space may have opened.
func (h *hub) advance(s *subscriber) {
	h.mu.Lock()
	s.cursor++
	if s.policy != DropResync {
		close(h.progress)
		h.progress = make(chan struct{})
	}
	h.mu.Unlock()
}

// snapRangeLocked returns the compacted snapshot of the Seq range
// [lo, hi): the latest retained event per stream, in Seq order.
func (h *hub) snapRangeLocked(lo, hi int) []Event {
	var out []Event
	for _, e := range h.snap {
		if e.Seq >= lo && e.Seq < hi {
			out = append(out, e)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

// subscribe attaches a new subscription and starts its pump.
func (h *hub) subscribe(ctx context.Context, opts SubscribeOptions) *Subscription {
	buf := opts.Buffer
	if buf <= 0 {
		buf = h.cfg.SubscriberBuffer
	}
	s := &subscriber{
		out:    make(chan Event, buf),
		policy: opts.Policy,
		quit:   make(chan struct{}),
	}
	h.mu.Lock()
	if opts.Live {
		// The attach-time snapshot jump; at total == 0 there is no history
		// to jump over, so a later lap is a real resync, not this one.
		s.syncTo = h.total
		s.initial = h.total > 0
	} else if opts.From > 0 {
		s.cursor = opts.From
		if s.cursor > h.total {
			s.cursor = h.total
		}
	}
	h.subs[s] = struct{}{}
	if s.policy != DropResync {
		h.guarded[s] = struct{}{}
	}
	h.mu.Unlock()
	go h.pump(ctx, s)
	return &Subscription{C: s.out, hub: h, sub: s}
}

// pump is one subscription's delivery goroutine: batch events out of the
// ring (or the snapshot, when catching up across a gap) under the lock,
// send them outside it, exit after the terminal event.
func (h *hub) pump(ctx context.Context, s *subscriber) {
	defer close(s.out)
	for {
		h.mu.Lock()
		if s.err != nil { // evicted by the producer
			h.removeLocked(s)
			h.mu.Unlock()
			return
		}
		if s.cursor < h.start && s.syncTo <= s.cursor {
			// Lapped (or attached below the retained range): resync via
			// the snapshot of what was missed.
			s.syncTo = h.start
			if !s.initial {
				s.resyncs++
				h.resyncs++
			}
		}
		var batch []Event
		fromRing := false
		if s.syncTo > s.cursor {
			batch = h.snapRangeLocked(s.cursor, s.syncTo)
			if !s.initial {
				s.dropped += s.syncTo - s.cursor - len(batch)
			}
			s.initial = false
			s.cursor = s.syncTo
			if len(batch) == 0 {
				// Every event in the missed range was superseded by a
				// later one still in the ring: nothing to deliver for the
				// gap itself — go around for the ring tail.
				h.mu.Unlock()
				continue
			}
		} else if n := h.total - s.cursor; n > 0 {
			// Bound the copy a parked pump can hold: one send channel's
			// worth per round trip keeps per-subscriber memory independent
			// of the ring size.
			if max := cap(s.out); n > max {
				n = max
			}
			fromRing = true
			batch = make([]Event, n)
			for i := range batch {
				batch[i] = h.ring[(s.cursor+i)%len(h.ring)]
			}
		}
		closed := h.closed
		notify := h.notify
		h.mu.Unlock()

		if len(batch) == 0 {
			if closed {
				// Subscribed at or past the end of a finished stream.
				h.remove(s)
				return
			}
			select {
			case <-notify:
			case <-ctx.Done():
				h.fail(s, ctx.Err())
				return
			case <-s.quit:
				h.remove(s)
				return
			}
			continue
		}
		for _, e := range batch {
			select {
			case s.out <- e:
				if fromRing {
					h.advance(s)
				}
				if e.Kind == KindDone {
					h.remove(s)
					return
				}
			case <-ctx.Done():
				h.fail(s, ctx.Err())
				return
			case <-s.quit:
				h.remove(s)
				return
			}
		}
	}
}

// frame returns the JSON encoding of one delivered event, shared across
// subscribers: the first fan-out of an event marshals it and caches the
// bytes in the ring-parallel frame slot; every later subscriber of the
// same event gets the cached bytes back. Events already lapped out of the
// ring (or snapshot resync deliveries of them) fall back to a plain
// marshal, as does every event of a sealed hub with no subscribers left:
// that hub released its cache and is not refilled. Callers must treat the
// returned slice as immutable.
//
// The cache keeps the producer's append marshal-free: encoding happens on
// the first subscriber's delivery path, where the cost was already being
// paid once per subscriber before the cache existed.
func (h *hub) frame(e Event) ([]byte, error) {
	h.mu.Lock()
	if h.frames != nil && h.inRingLocked(e.Seq) {
		if b := h.frames[e.Seq%len(h.ring)]; b != nil {
			h.mu.Unlock()
			return b, nil
		}
	}
	h.mu.Unlock()
	b, err := json.Marshal(e)
	if err != nil {
		return nil, err
	}
	h.mu.Lock()
	// Re-check: the producer may have lapped the slot while we
	// marshalled. Racing subscribers encode the same event value, so a
	// double store is byte-identical and harmless.
	if h.inRingLocked(e.Seq) && !(h.closed && len(h.subs) == 0) {
		if h.frames == nil {
			h.frames = make([][]byte, len(h.ring))
		}
		h.frames[e.Seq%len(h.ring)] = b
	}
	h.mu.Unlock()
	return b, nil
}

// inRingLocked reports whether the event numbered seq is still in the
// ring.
func (h *hub) inRingLocked(seq int) bool {
	return seq >= h.start && seq < h.total
}

// total returns the number of events emitted so far.
func (h *hub) totalEvents() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.total
}

// retained returns a copy of every event still replayable, in Seq order:
// the compacted snapshot of the evicted range followed by the ring.
func (h *hub) retained() []Event {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := h.snapRangeLocked(0, h.start)
	for seq := h.start; seq < h.total; seq++ {
		out = append(out, h.ring[seq%len(h.ring)])
	}
	return out
}

// stats snapshots the hub's counters.
func (h *hub) stats() StreamStats {
	h.mu.Lock()
	defer h.mu.Unlock()
	retained := h.total - h.start
	for _, e := range h.snap {
		if e.Seq < h.start {
			retained++
		}
	}
	return StreamStats{
		Emitted:     h.total,
		Retained:    retained,
		Overwritten: h.start,
		Subscribers: len(h.subs),
		Resyncs:     h.resyncs,
		Evictions:   h.evictions,
		MaxStall:    h.maxStall,
	}
}
