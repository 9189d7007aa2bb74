// Package dist is the round-synchronous message-passing simulator the
// library's distributed algorithms (internal/distalgo) run on.  It implements
// the two synchronous models of distributed computing the paper uses (§2):
// LOCAL and CONGEST_BC.
//
// # Execution model
//
// A protocol is a factory assigning a Node to every vertex of a graph.  The
// runner first calls Init on every node (round 0); a node may already
// broadcast there.  Then rounds 1, 2, ... are executed: every node receives
// the messages its neighbors sent in the previous round (as an []Inbound,
// at most one per neighbor, in ascending sender id) and takes one step via
// Round.  All node steps of a round are logically simultaneous; the runner
// fans them out across worker goroutines (Options.Workers) but the
// observable behavior is identical for every worker count.
//
// The run terminates at the end of the first round in which no node
// broadcast and every node reports Done.  A protocol that neither quiesces
// nor halts is cut off with ErrMaxRounds after Options.MaxRounds rounds.
//
// # Models and bandwidth
//
// Broadcast is the only primitive: in both models a vertex sends one
// message per round, the same message on every incident edge.  A message
// is a span of int32 words, one O(log n)-bit word per vertex id or small
// integer, so its size is its length.  A node builds it in place: every
// Broadcast of a step appends to the vertex's message of the round, and
// the runner closes the message when the step returns.  CongestBC checks
// the closed message once against Options.Bandwidth (in words); a message
// past it is not sent, and the run aborts after the round with
// ErrMessageTooLarge.  Local places no limit on the size, so a LOCAL
// vertex that wants to tell its neighbors different things broadcasts
// their union.  The paper's protocols keep message sizes bounded by a
// constant that depends on the graph class and radius but is not known to
// the simulator, so Bandwidth = 0 means "track but do not limit": sizes
// are still accounted in Stats (Words, MaxMessageWords) for congestion
// reports.
//
// See DESIGN.md §2 for the full semantics and the model table.
package dist

import "errors"

// Model selects the communication model of a run.
type Model int

const (
	// Local is the LOCAL model: one message per vertex per round, of any
	// size.
	Local Model = iota
	// CongestBC is the CONGEST_BC (broadcast congest) model: one
	// bandwidth-limited message per vertex per round.
	CongestBC
)

// String returns the conventional name of the model.
func (m Model) String() string {
	switch m {
	case Local:
		return "LOCAL"
	case CongestBC:
		return "CONGEST_BC"
	default:
		return "Model(?)"
	}
}

func (m Model) valid() bool { return m == Local || m == CongestBC }

// Options tunes a simulator run.  The zero value selects sensible defaults.
type Options struct {
	// Workers bounds the number of goroutines used to step nodes within a
	// round (0 = GOMAXPROCS).  The result of a run does not depend on it.
	Workers int
	// MaxRounds aborts runaway protocols with ErrMaxRounds (0 = a generous
	// default derived from the graph size).
	MaxRounds int
	// Bandwidth is the maximum message size in words in the CongestBC
	// model (0 = unlimited; sizes are still tracked in Stats).  It is
	// ignored in the Local model.
	Bandwidth int
	// Probe, when non-nil, records a per-round profile and a per-vertex
	// congestion table for every run (see probe.go).  A nil Probe costs
	// nothing; an enabled one never changes the run's observable behavior
	// or its Stats, and every profile field except wall-clock durations is
	// independent of Workers.
	Probe *Probe
}

// Inbound is one received message together with its sender.
type Inbound struct {
	// From is the id of the sending neighbor.
	From int
	// Words is the delivered message, one O(log n)-bit word per entry.
	Words []int32
}

// Node is the per-vertex protocol state machine.  Init is called once before
// the first round (it may already broadcast); Round is called once per round
// with the messages received from the previous round, at most one per
// neighbor, in ascending sender id.  The inbox and the words of every
// message in it are only valid for the duration of the call: the runner
// reuses the inbox array for the next vertex it steps and overwrites the
// words the round after, so a node copies whatever it keeps.  Done is
// consulted after every Round call: the run terminates only when every
// node is done and no node broadcast in the round (so no message is in
// flight).  A node that only reacts to messages returns true.
type Node interface {
	Init(*Context)
	Round(*Context, []Inbound)
	Done() bool
}

// Stats reports the communication cost of a run.  The JSON field names are
// part of the /debug/dist/runs wire format served by domserved.
type Stats struct {
	// Rounds is the number of executed rounds (Init is round 0 and not
	// counted).
	Rounds int `json:"rounds"`
	// Messages is the total number of deliveries, one per receiving
	// neighbor: a broadcast to d neighbors counts d messages.
	Messages int64 `json:"messages"`
	// Words is the total number of delivered words (message sizes summed
	// over deliveries).
	Words int64 `json:"words"`
	// MaxMessageWords is the size of the largest delivered message, in
	// words.  (A message broadcast by an isolated vertex crosses no edge
	// and congests nothing, so it is not accounted here.)
	MaxMessageWords int `json:"max_message_words"`
}

// Add folds the statistics of a run that followed s into s: rounds,
// messages and words add up across a sequential composition, and
// MaxMessageWords is the maximum.
func (s *Stats) Add(o Stats) {
	s.Rounds += o.Rounds
	s.Messages += o.Messages
	s.Words += o.Words
	s.MaxMessageWords = max(s.MaxMessageWords, o.MaxMessageWords)
}

// Errors returned by Runner.Run, wrapped with the offending vertex or the
// round budget; use errors.Is to test for them.
var (
	// ErrMaxRounds reports that the protocol neither quiesced nor halted
	// within the round budget.
	ErrMaxRounds = errors.New("dist: maximum round count exceeded")
	// ErrMessageTooLarge reports a message exceeding Options.Bandwidth in
	// the CongestBC model; the error names the round's smallest such
	// vertex and the size of its message.
	ErrMessageTooLarge = errors.New("dist: message exceeds the model bandwidth")
	// ErrBadModel reports an unknown Model value.
	ErrBadModel = errors.New("dist: unknown communication model")
)
