package fault

import (
	"strings"
	"sync"
	"time"
)

// StageFault schedules one engine-stage fault: the Nth firing of a stage
// whose name contains Stage sleeps for Delay and/or panics with Panic.
// Stage names are the engine's span names: "query:<kind>" for every query,
// "substrate:order", "substrate:wreach", "substrate:domset",
// "substrate:cds" and "substrate:cover" for builds only, and
// "solve:<strategy>" inside a domset answer's build.
type StageFault struct {
	Stage string // substring the stage name must contain ("" = every stage)
	// AfterN fires on the Nth matching stage execution, 1-based (0 = 1).
	AfterN uint64
	// Delay is slept before the stage body runs (latency injection).
	Delay time.Duration
	// Panic, when non-empty, panics with this value after the delay — the
	// engine must convert it into a per-query error, never a crash.
	Panic string
	// Sticky keeps firing on every matching execution after the Nth.
	Sticky bool
}

type stageState struct {
	StageFault
	seen uint64
}

// Stages injects latency and panics at engine pipeline stages.  Wire Hook()
// into engine.Config.StageHook; production engines leave the hook nil and
// pay nothing.
type Stages struct {
	mu     sync.Mutex
	faults []*stageState
	fired  uint64
}

// NewStages returns a stage injector with the given schedule.
func NewStages(faults ...StageFault) *Stages {
	s := &Stages{}
	for _, f := range faults {
		s.faults = append(s.faults, &stageState{StageFault: f})
	}
	return s
}

// Hook adapts the injector to engine.Config.StageHook.
func (s *Stages) Hook() func(stage string) { return s.Fire }

// Fired returns how many stage faults have fired.
func (s *Stages) Fired() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.fired
}

// Fire counts one stage execution and applies any matching fault: it sleeps
// the injected delay and/or panics.  The panic escapes to the caller by
// design — surviving it is exactly what the engine's recovery is for.
func (s *Stages) Fire(stage string) {
	var delay time.Duration
	var panicMsg string
	havePanic := false
	s.mu.Lock()
	for _, f := range s.faults {
		if !strings.Contains(stage, f.Stage) {
			continue
		}
		f.seen++
		after := f.AfterN
		if after == 0 {
			after = 1
		}
		hit := f.seen == after
		if f.Sticky {
			hit = f.seen >= after
		}
		if !hit {
			continue
		}
		s.fired++
		if f.Delay > delay {
			delay = f.Delay
		}
		if f.Panic != "" && !havePanic {
			panicMsg, havePanic = f.Panic, true
		}
	}
	s.mu.Unlock()
	if delay > 0 {
		time.Sleep(delay)
	}
	if havePanic {
		panic(panicMsg)
	}
}
