package dist

// Context is a node's handle to the simulator: topology queries and message
// emission.  A Context is owned by exactly one node and must only be used
// from within that node's Init and Round calls.
type Context struct {
	r *Runner
	v int
	// w is the worker stepping this vertex in the current round; a
	// broadcast lands in its slab.
	w *worker
	// sent holds this vertex's message of the last two rounds, each a
	// window of a worker's slab: round t writes sent[t%2] while the
	// neighbors' steps of round t read sent[(t-1)%2], so the two never
	// touch the same slot.  An empty span is an empty slot.
	sent [2][]int32
}

// Round returns the current round number: 0 during Init, then 1, 2, ...
func (c *Context) Round() int { return c.r.round }

// Degree returns the number of neighbors of this vertex.
func (c *Context) Degree() int { return int(c.r.off[c.v+1] - c.r.off[c.v]) }

// Neighbors returns the ids of this vertex's neighbors in increasing order.
// The slice is the vertex's row of the graph's CSR and must not be modified.
func (c *Context) Neighbors() []int32 { return c.r.row(c.v) }

// Broadcast appends words to the vertex's message of this round, which
// every neighbor receives at the next round.  The message is every span
// passed to Broadcast during the vertex's step, one after another, so a
// node may send its message in pieces; the words are copied at once, so
// the caller may reuse its buffer.  An empty span adds nothing, and a step
// that adds nothing sends nothing.  In CongestBC the whole message must fit
// in the configured bandwidth, or the run aborts after the round.
func (c *Context) Broadcast(words []int32) {
	p := c.r.round % 2
	c.w.slab[p] = append(c.w.slab[p], words...)
}
