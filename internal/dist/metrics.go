package dist

import (
	"errors"
	"time"

	"bedom/internal/obs"
)

// Simulator metrics, recorded into the process-wide default registry
// (obs.Default) so one domserved /metrics scrape covers every run,
// regardless of which engine or pipeline triggered it.  Labels: the
// communication model (LOCAL / CONGEST_BC) and the pipeline phase (the
// label Runner.Run is given; internal/distalgo names each of its stages).  The counters
// mirror Stats — rounds, per-neighbor deliveries, delivered words — which
// are exactly the quantities the paper's CONGEST accounting (and the E10
// successor comparison) measures.
var (
	// distRuns carries an explicit outcome label ("ok" / "error") so an
	// aborted run (ErrMaxRounds, ErrMessageTooLarge, ...) never blends into
	// the success series: rate(bedom_dist_runs_total{outcome="error"}) is
	// the abort rate, no cross-metric subtraction needed.  The cost series
	// below (rounds/messages/words/seconds) intentionally keep their
	// {model,phase} shape — an aborted run's rounds still happened and its
	// words still crossed edges, and the CI scrape assertions pin that
	// shape.
	distRuns = obs.Default().CounterVec("bedom_dist_runs_total",
		"Simulator runs, by model, pipeline phase and outcome (ok or error).",
		"model", "phase", "outcome")
	distErrors = obs.Default().CounterVec("bedom_dist_errors_total",
		"Simulator runs that ended in an error, by failure reason.",
		"model", "phase", "reason")
	distRounds = obs.Default().CounterVec("bedom_dist_rounds_total",
		"Synchronous rounds executed, by model and pipeline phase.", "model", "phase")
	distMessages = obs.Default().CounterVec("bedom_dist_messages_total",
		"Point-to-point message deliveries (a broadcast to d neighbors counts d).", "model", "phase")
	distWords = obs.Default().CounterVec("bedom_dist_words_total",
		"Delivered words (message sizes summed over deliveries).", "model", "phase")
	distSeconds = obs.Default().HistogramVec("bedom_dist_run_seconds",
		"Wall-clock duration of one simulator run.", nil, "model", "phase")
	distMaxWords = obs.Default().HistogramVec("bedom_dist_max_message_words",
		"Largest delivered message per run, in words (the CONGEST bandwidth witness).",
		obs.SizeBuckets, "model", "phase")
)

// recordRun accounts one finished simulator run from its summary; err is
// the run's error (rp.Err is its text), bucketed into the reason label.
func recordRun(rp *RunProfile, err error) {
	m, phase, st := rp.Model, rp.Phase, rp.Stats
	outcome := "ok"
	if err != nil {
		outcome = "error"
	}
	distRuns.With(m, phase, outcome).Inc()
	distRounds.With(m, phase).Add(uint64(st.Rounds))
	distMessages.With(m, phase).Add(uint64(st.Messages))
	distWords.With(m, phase).Add(uint64(st.Words))
	distSeconds.With(m, phase).ObserveDuration(time.Duration(rp.DurationNS))
	if st.MaxMessageWords > 0 {
		distMaxWords.With(m, phase).Observe(float64(st.MaxMessageWords))
	}
	if err != nil {
		distErrors.With(m, phase, errorReason(err)).Inc()
	}
}

// errorReason buckets a run error into a bounded label vocabulary (labels
// must not carry free-form error text — every distinct value is a new
// series).
func errorReason(err error) string {
	switch {
	case errors.Is(err, ErrMaxRounds):
		return "max_rounds"
	case errors.Is(err, ErrMessageTooLarge):
		return "message_too_large"
	case errors.Is(err, ErrBadModel):
		return "bad_model"
	default:
		return "other"
	}
}
