package adhocga

import (
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"io"
	"log/slog"
	"slices"
	"sync"
	"time"
)

// The streaming hub. Every Job owns one: a single producer (the spec's run
// goroutine) appends events into a fixed-capacity ring buffer with an
// incrementally-compacted snapshot (the latest generation/islands/churn
// event per stream, plus the latest replicate and the terminal event), and
// any number of subscribers follow it as cursors, each with an explicit
// backpressure policy and no goroutine or buffer of its own: the reader
// pulls events from the ring (or the snapshot, across a gap) and parks on
// a wake channel the next append closes. A job's event memory is bounded
// by the ring regardless of how long it runs, and a slow reader can never
// stall the producer past the configured deadline — it is either resynced
// from the snapshot (live viewers) or evicted (archival readers that
// stopped reading). Once the terminal event seals a hub whose ring never
// lapped, the ring holds every event, so the hub drops the snapshot map
// and derives the snapshot from the ring.
//
// Determinism contract: event contents, Seq numbering, and emission order
// are exactly what the append-only log produced. A replay subscription on
// a finished job whose total event count fits the ring is byte-identical
// to the historical full replay (the NDJSON goldens pin this); a longer
// job replays as compacted snapshot + ring tail — same final state, gaps
// in Seq where compaction dropped superseded per-stream events.

// DefaultRingSize is the number of events a job retains for replay and
// slow-subscriber catch-up when HubConfig.RingSize is not set.
const DefaultRingSize = 1024

// blockDeadline is the longest one append waits for a BlockWithDeadline
// subscriber whose unread events would be overwritten; past it the laggard
// is evicted and the producer moves on. It is the same for every job.
const blockDeadline = time.Second

// HubConfig sizes a job's streaming hub. The zero value means the
// default size.
type HubConfig struct {
	// RingSize is the number of events retained in the ring buffer. The
	// ring bounds both replay depth and per-job event memory. It grows
	// geometrically up to this cap while the job runs, so short jobs stay
	// small, and when the job ends it shrinks to exactly the events it
	// holds: a finished job keeps min(events, RingSize) slots. ≤0 means
	// DefaultRingSize.
	RingSize int
}

// Backpressure is a subscriber's policy for the moment the producer laps
// it: the ring is full and the next append would overwrite events the
// subscriber has not received yet.
type Backpressure int

const (
	// BlockWithDeadline makes the producer wait (up to one second) for
	// the subscriber to advance before overwriting its unread events,
	// then evicts it with ErrSlowSubscriber if it still has not moved.
	// This is the archival policy: the NDJSON event path and the CLIs use
	// it so an actively-reading consumer sees every event with no gaps.
	BlockWithDeadline Backpressure = iota
	// DropResync never blocks the producer: a lapped subscriber skips
	// ahead — it receives the compacted snapshot of the range it missed
	// (latest event per stream, original Seq numbers) and resumes from
	// the oldest ring entry. This is the live-viewer policy: SSE and
	// WebSocket watchers stay current instead of stalling the job.
	DropResync
)

// ErrSlowSubscriber is the terminal error of a subscription evicted by
// backpressure: the consumer stopped reading and its policy forbade
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
}

// Subscription is one subscriber's cursor into the job's event stream:
// call Next until it returns an error. All methods are safe for
// concurrent use; each event goes to whichever caller's Next takes it.
type Subscription struct {
	hub *hub
	sub *subscriber
}

// Next returns the event at the subscription's cursor, in Seq order, and
// moves the cursor past it. When no event is ready yet it returns a wake
// channel instead: it is closed once an event may be ready (or the
// subscription was detached), and the caller then calls Next again. After
// the terminal KindDone event Next returns io.EOF; after a backpressure
// eviction it returns ErrSlowSubscriber, and after a detach the context's
// error. It never blocks beyond the hub's lock.
func (s *Subscription) Next() (Event, <-chan struct{}, error) {
	h, sub := s.hub, s.sub
	h.mu.Lock()
	defer h.mu.Unlock()
	for {
		if sub.err != nil {
			return Event{}, nil, sub.err
		}
		if sub.cursor < h.start && sub.syncTo <= sub.cursor {
			// Lapped (or attached below the retained range): resync via
			// the snapshot of what was missed.
			sub.syncTo = h.start
			if !sub.initial {
				h.resyncs++
			}
		}
		var e Event
		switch {
		case sub.syncTo > sub.cursor:
			sub.initial = false
			missed := h.snapRangeLocked(sub.cursor, sub.syncTo)
			if len(missed) == 0 {
				// Every event left in the missed range was superseded by
				// a later one still in the ring: go on with the ring.
				sub.cursor = sub.syncTo
				continue
			}
			e = missed[0]
			sub.cursor = e.Seq + 1
		case sub.cursor < h.total:
			e = h.ring[sub.cursor%len(h.ring)]
			sub.cursor++
			if sub.policy != DropResync {
				signal(&h.progress)
			}
		case h.closed:
			// Past the terminal event, or subscribed at or past the end of
			// a finished stream.
			h.removeLocked(sub)
			return Event{}, nil, io.EOF
		default:
			return Event{}, await(&h.notify), nil
		}
		if h.closed && sub.cursor == h.total {
			h.removeLocked(sub) // e is the terminal event
		}
		return e, nil, nil
	}
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
	// subscribers — bounded by the hub's one-second block deadline (+
	// scheduling noise) by construction.
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
	policy Backpressure
	stop   func() bool // unregisters the context detach

	cursor  int  // next Seq to deliver
	syncTo  int  // when > cursor: snapshot the range [cursor, syncTo) then jump
	initial bool // the pending sync is the live-attach one, not a fall-behind
	err     error
}

// hub is a job's broadcast core. All mutable state is guarded by mu; the
// producer appends under it and every subscription's Next reads under it.
type hub struct {
	cfg    HubConfig
	jobID  string
	logger *slog.Logger
	// blockDeadline is the package's blockDeadline; hub tests shrink it so
	// backpressure engages within milliseconds.
	blockDeadline time.Duration

	mu       sync.Mutex
	ring     []Event  // circular; slot of seq s is s % len(ring); grows to cfg.RingSize, fit at the seal
	frames   [][]byte // nil, or the lazily-filled JSON encoding of each ring slot (nil = not encoded yet)
	start    int      // Seq of the oldest retained ring event
	total    int      // Seq of the next event (== events emitted)
	snap     map[streamKey]Event
	closed   bool          // terminal event appended; no more appends
	notify   chan struct{} // nil, or made by a parked reader; closed by the next append or detach
	progress chan struct{} // nil, or made by a waiting producer; closed when a guarded subscriber advances or leaves

	subs      map[*subscriber]struct{} // nil until the first subscribe, and on a sealed hub nobody follows
	guarded   map[*subscriber]struct{} // the non-DropResync subset the producer must check
	resyncs   int
	evictions int
	maxStall  time.Duration
}

func newHub(jobID string, cfg HubConfig, logger *slog.Logger) *hub {
	if logger == nil {
		logger = slog.New(slog.DiscardHandler)
	}
	if cfg.RingSize <= 0 {
		cfg.RingSize = DefaultRingSize
	}
	return &hub{
		cfg:           cfg,
		jobID:         jobID,
		logger:        logger,
		blockDeadline: blockDeadline,
		snap:          map[streamKey]Event{},
	}
}

// await returns the wake channel *c, making it if no waiter has yet.
func await(c *chan struct{}) chan struct{} {
	if *c == nil {
		*c = make(chan struct{})
	}
	return *c
}

// signal wakes whoever waits on *c, if anyone does, and leaves it for the
// next waiter to make afresh. Nobody waiting costs nothing.
func signal(c *chan struct{}) {
	if *c != nil {
		close(*c)
		*c = nil
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

// releaseIdleLocked drops the frame cache and the subscriber maps of a
// sealed hub nobody is subscribed to: no fan-out is left to share the
// bytes with, frame() re-marshals on demand to the same bytes, and a
// later subscribe allocates the maps afresh.
func (h *hub) releaseIdleLocked() {
	if h.closed && len(h.subs) == 0 {
		h.frames = nil
		h.subs = nil
		h.guarded = nil
	}
}

// append is the producer path: stamp, retain, compact, wake subscribers.
// terminal additionally seals the hub so nothing can be emitted after the
// done event. Appends on a sealed hub are dropped (matching the old
// emit-after-terminal semantics). The only blocking append can do is the
// guarded-subscriber wait, bounded by h.blockDeadline.
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
		// the subscriber attached late; its Next resyncs it, the
		// producer owes it nothing.)
		var blocker *subscriber
		if h.total-h.start == len(h.ring) {
			for s := range h.guarded {
				if s.cursor == h.start {
					if timedOut {
						h.evictLocked(s)
					} else {
						blocker = s
					}
				}
			}
		}
		if blocker != nil {
			progress := await(&h.progress)
			h.mu.Unlock()
			if timer == nil {
				waitStart = time.Now()
				timer = time.NewTimer(h.blockDeadline)
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
			// the events it holds, and an unwatched job keeps no frames
			// and no subscriber maps. A ring that never lapped holds
			// every event, so the snapshot is derivable from it and the
			// map goes too.
			h.closed = true
			h.releaseIdleLocked()
			if h.start == 0 {
				h.snap = nil
			}
			if n := h.total - h.start; n < len(h.ring) {
				h.relayoutLocked(n)
			}
		}
		signal(&h.notify)
		h.mu.Unlock()
		return
	}
}

// evictLocked applies backpressure eviction to one subscriber. Its reader
// learns of it from Next once the append that evicted it wakes the hub.
func (h *hub) evictLocked(s *subscriber) {
	s.err = ErrSlowSubscriber
	h.evictions++
	h.logger.Warn("subscriber evicted by backpressure",
		"job", h.jobID, "cursor", s.cursor, "evictions", h.evictions)
	h.removeLocked(s)
}

// removeLocked detaches a subscriber, releases its context registration,
// and wakes a producer that may have been waiting on it.
func (h *hub) removeLocked(s *subscriber) {
	if _, ok := h.subs[s]; !ok {
		return
	}
	delete(h.subs, s)
	delete(h.guarded, s)
	s.stop()
	h.releaseIdleLocked()
	signal(&h.progress)
}

// detach ends a still-attached subscription with its context's error and
// wakes the parked readers, so its own reader learns of it from Next.
func (h *hub) detach(s *subscriber, err error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if _, ok := h.subs[s]; ok {
		s.err = err
		h.removeLocked(s)
		signal(&h.notify)
	}
}

// snapRangeLocked returns the compacted snapshot of the Seq range
// [lo, hi): the latest retained event per stream, in Seq order. A sealed
// hub whose ring never lapped keeps no snapshot map; its ring holds every
// event, so the latest event per stream is found by walking the ring back
// from the newest. Only a live attach reaches that walk: nothing below
// the ring was overwritten, so no other range can be missed.
func (h *hub) snapRangeLocked(lo, hi int) []Event {
	if lo >= hi {
		return nil
	}
	var out []Event
	if h.snap == nil {
		seen := map[streamKey]bool{}
		for seq := h.total - 1; seq >= lo; seq-- {
			e := h.ring[seq%len(h.ring)]
			if k := compactionKey(e); !seen[k] {
				seen[k] = true
				if seq < hi {
					out = append(out, e)
				}
			}
		}
		slices.Reverse(out)
		return out
	}
	for _, e := range h.snap {
		if e.Seq >= lo && e.Seq < hi {
			out = append(out, e)
		}
	}
	slices.SortFunc(out, func(a, b Event) int { return cmp.Compare(a.Seq, b.Seq) })
	return out
}

// subscribe attaches a new subscription at its starting cursor. The
// context's cancellation detaches it through context.AfterFunc, so an idle
// subscription holds no goroutine.
func (h *hub) subscribe(ctx context.Context, opts SubscribeOptions) *Subscription {
	s := &subscriber{policy: opts.Policy}
	h.mu.Lock()
	defer h.mu.Unlock()
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
	if h.subs == nil {
		h.subs = map[*subscriber]struct{}{}
	}
	h.subs[s] = struct{}{}
	if s.policy != DropResync {
		if h.guarded == nil {
			h.guarded = map[*subscriber]struct{}{}
		}
		h.guarded[s] = struct{}{}
	}
	// Registered under the lock: a context already done runs the detach
	// on its own goroutine, which waits for this one to finish.
	s.stop = context.AfterFunc(ctx, func() { h.detach(s, ctx.Err()) })
	return &Subscription{hub: h, sub: s}
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
	// Snapshot entries below the ring count too; a nil snap means the
	// ring never lapped, so it holds everything retained.
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
