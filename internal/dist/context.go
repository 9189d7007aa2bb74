package dist

import "fmt"

// sentMsg is a staged broadcast with its size precomputed (the size is
// needed for the bandwidth check and the statistics; computing it once at
// send time avoids re-walking variable-size messages per receiver).  A nil
// msg is an empty slot.
type sentMsg struct {
	msg   Message
	words int
}

// Context is a node's handle to the simulator: topology queries and message
// emission.  A Context is owned by exactly one node and must only be used
// from within that node's Init and Round calls.
type Context struct {
	r *Runner
	v int
	// sent holds this vertex's broadcast of the last two rounds: round t
	// writes sent[t%2] while the neighbors' steps of round t read
	// sent[(t-1)%2], so the two never touch the same slot.
	sent [2]sentMsg
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

// Broadcast stages msg for delivery to every neighbor at the next round.  A
// node broadcasts at most once per round in every model, and in CongestBC
// the message must fit in the configured bandwidth; violations abort the
// run.  A nil message is ignored.
func (c *Context) Broadcast(msg Message) {
	if msg == nil || c.err != nil {
		return
	}
	slot := &c.sent[c.r.round%2]
	if slot.msg != nil {
		c.fail(fmt.Errorf("%w: vertex %d broadcast twice in round %d of %v",
			ErrModelViolation, c.v, c.r.round, c.r.model))
		return
	}
	words := max(msg.Words(), 0)
	if c.r.bandwidth > 0 && words > c.r.bandwidth {
		c.fail(fmt.Errorf("%w: vertex %d sent %d words (limit %d) in round %d of %v",
			ErrMessageTooLarge, c.v, words, c.r.bandwidth, c.r.round, c.r.model))
		return
	}
	*slot = sentMsg{msg: msg, words: words}
}

// fail records the first violation of this node; the runner surfaces it
// after the round.
func (c *Context) fail(err error) {
	if c.err == nil {
		c.err = err
	}
}
