package dist

import (
	"fmt"
	"slices"
	"sort"
)

// sentMsg is a message staged for delivery, with its size precomputed (the
// size is needed for the bandwidth check and the statistics; computing it
// once at send time avoids re-walking variable-size messages per receiver).
type sentMsg struct {
	msg   Message
	words int
}

// envelope is a point-to-point message staged for delivery.
type envelope struct {
	to int
	sentMsg
}

// outbox holds the messages a node sent in one round.  Two outboxes per node
// are kept and flipped every round, so a node's step can read its neighbors'
// previous-round outboxes while writing its own current one without
// synchronization.
type outbox struct {
	bcasts  []sentMsg
	directs []envelope
}

func (o *outbox) reset() {
	o.bcasts = o.bcasts[:0]
	o.directs = o.directs[:0]
}

func (o *outbox) empty() bool { return len(o.bcasts) == 0 && len(o.directs) == 0 }

// seal prepares the outbox for delivery once the owner's step is over: the
// point-to-point messages are stably grouped by destination, so every
// receiver extracts its envelopes with one binary search instead of scanning
// the sender's whole list (which would be quadratic in the sender's
// out-degree).  The stable sort preserves the per-receiver send order the
// inbox contract promises.  Broadcast-only rounds — all of the library's
// protocols — skip it entirely.
func (o *outbox) seal() {
	if len(o.directs) > 1 {
		sort.SliceStable(o.directs, func(i, j int) bool { return o.directs[i].to < o.directs[j].to })
	}
}

// directsTo returns the envelopes addressed to v, in send order.  The outbox
// must be sealed.
func (o *outbox) directsTo(v int) []envelope {
	d := o.directs
	lo := sort.Search(len(d), func(i int) bool { return d[i].to >= v })
	hi := lo
	for hi < len(d) && d[hi].to == v {
		hi++
	}
	return d[lo:hi]
}

// Context is a node's handle to the simulator: topology queries and message
// emission.  A Context is owned by exactly one node and must only be used
// from within that node's Init and Round calls.
type Context struct {
	r *Runner
	v int
	// out is the outbox of the current round (flipped by the runner).
	out *outbox
	// boxes is the double buffer behind out.
	boxes [2]outbox
	// err records the first model violation of this node; the runner aborts
	// the run with the violation of the smallest vertex id, so reporting
	// stays deterministic under any worker count.
	err error
}

// Round returns the current round number: 0 during Init, then 1, 2, ...
func (c *Context) Round() int { return c.r.round }

// Degree returns the number of neighbors of this vertex.
func (c *Context) Degree() int { return int(c.r.off[c.v+1] - c.r.off[c.v]) }

// Neighbors returns the ids of this vertex's neighbors in increasing order.
// The slice is the vertex's row of the graph's CSR and must not be modified.
func (c *Context) Neighbors() []int32 { return c.r.row(c.v) }

// Broadcast stages msg for delivery to every neighbor at the next round.  In
// the Congest models a node may broadcast at most once per round and the
// message must fit in the configured bandwidth; violations abort the run.
// A nil message is ignored.
func (c *Context) Broadcast(msg Message) {
	if msg == nil || c.err != nil {
		return
	}
	words, ok := c.admit(msg)
	if !ok {
		return
	}
	if c.r.model != Local {
		if len(c.out.bcasts) > 0 {
			c.fail(fmt.Errorf("%w: vertex %d broadcast twice in round %d of %v",
				ErrModelViolation, c.v, c.r.round, c.r.model))
			return
		}
		if c.r.model == Congest && len(c.out.directs) > 0 {
			c.fail(fmt.Errorf("%w: vertex %d mixed Send and Broadcast in round %d of %v",
				ErrModelViolation, c.v, c.r.round, c.r.model))
			return
		}
	}
	c.out.bcasts = append(c.out.bcasts, sentMsg{msg: msg, words: words})
}

// Send stages msg for delivery to the neighbor `to` at the next round.  It
// is forbidden in CongestBC (broadcast only); in Congest each edge carries
// at most one message per round.  A nil message is ignored.
func (c *Context) Send(to int, msg Message) {
	if msg == nil || c.err != nil {
		return
	}
	if c.r.model == CongestBC {
		c.fail(fmt.Errorf("%w: vertex %d used point-to-point Send in round %d of %v",
			ErrModelViolation, c.v, c.r.round, c.r.model))
		return
	}
	if !c.isNeighbor(to) {
		c.fail(fmt.Errorf("%w: vertex %d sent to non-neighbor %d in round %d",
			ErrBadSendTarget, c.v, to, c.r.round))
		return
	}
	words, ok := c.admit(msg)
	if !ok {
		return
	}
	if c.r.model == Congest && len(c.out.bcasts) > 0 {
		c.fail(fmt.Errorf("%w: vertex %d mixed Broadcast and Send in round %d of %v",
			ErrModelViolation, c.v, c.r.round, c.r.model))
		return
	}
	c.out.directs = append(c.out.directs, envelope{to: to, sentMsg: sentMsg{msg: msg, words: words}})
}

// admit sizes the message and applies the bandwidth limit of the Congest
// models.  It reports whether the message may be sent.
func (c *Context) admit(msg Message) (words int, ok bool) {
	words = msg.Words()
	if words < 0 {
		words = 0
	}
	if c.r.model != Local && c.r.bandwidth > 0 && words > c.r.bandwidth {
		c.fail(fmt.Errorf("%w: vertex %d sent %d words (limit %d) in round %d of %v",
			ErrMessageTooLarge, c.v, words, c.r.bandwidth, c.r.round, c.r.model))
		return 0, false
	}
	return words, true
}

func (c *Context) isNeighbor(u int) bool {
	if u < 0 || u >= c.r.g.N() {
		return false
	}
	_, ok := slices.BinarySearch(c.r.row(c.v), int32(u))
	return ok
}

// finishStep is called by the runner when the owner's Init or Round call
// returns: it seals the outbox and runs the deferred Congest per-edge check
// — after the stable sort by destination a duplicate edge use shows up as
// adjacent envelopes with equal targets, so the check is O(d) instead of
// the O(d²) a per-Send scan would cost.
func (c *Context) finishStep() {
	c.out.seal()
	if c.r.model != Congest || c.err != nil {
		return
	}
	d := c.out.directs
	for i := 1; i < len(d); i++ {
		if d[i].to == d[i-1].to {
			c.fail(fmt.Errorf("%w: vertex %d sent twice on edge {%d,%d} in round %d of %v",
				ErrModelViolation, c.v, c.v, d[i].to, c.r.round, c.r.model))
			return
		}
	}
}

// fail records the first violation of this node; the runner surfaces it
// after the round.
func (c *Context) fail(err error) {
	if c.err == nil {
		c.err = err
	}
}
