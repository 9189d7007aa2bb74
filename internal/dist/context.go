package dist

import "fmt"

// Context is a node's handle to the simulator: topology queries and message
// emission.  A Context is owned by exactly one node and must only be used
// from within that node's Init and Round calls.
type Context struct {
	r *Runner
	v int
	// w is the worker stepping this vertex in the current round; a
	// broadcast lands in its slab.
	w *worker
	// sent holds this vertex's broadcast of the last two rounds, each a
	// window of a worker's slab: round t writes sent[t%2] while the
	// neighbors' steps of round t read sent[(t-1)%2], so the two never
	// touch the same slot.  An empty span is an empty slot.
	sent [2][]int32
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

// Broadcast stages words for delivery to every neighbor at the next round.
// It copies them, so the caller may reuse its buffer at once.  A node
// broadcasts at most once per round in every model, and in CongestBC the
// message must fit in the configured bandwidth; violations abort the run.
// An empty span is ignored.
func (c *Context) Broadcast(words []int32) {
	if len(words) == 0 || c.err != nil {
		return
	}
	slot := &c.sent[c.r.round%2]
	if len(*slot) != 0 {
		c.fail(fmt.Errorf("%w: vertex %d broadcast twice in round %d of %v",
			ErrModelViolation, c.v, c.r.round, c.r.model))
		return
	}
	if c.r.bandwidth > 0 && len(words) > c.r.bandwidth {
		c.fail(fmt.Errorf("%w: vertex %d sent %d words (limit %d) in round %d of %v",
			ErrMessageTooLarge, c.v, len(words), c.r.bandwidth, c.r.round, c.r.model))
		return
	}
	*slot = c.w.stage(c.r.round%2, words)
}

// fail records the first violation of this node; the runner surfaces it
// after the round.
func (c *Context) fail(err error) {
	if c.err == nil {
		c.err = err
	}
}
