package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"reflect"

	"bedom/internal/exp"
)

// compareSnapshots loads two -json snapshots and fails (returns an error)
// when any cell of any table differs.  The experiment workloads are seeded
// and deterministic for every worker count, so two runs of the same code
// produce identical tables; any changed cell means the algorithms' outputs
// or costs actually changed — the regression the CI gate exists to catch.
func compareSnapshots(basePath, candPath string, w io.Writer) error {
	base, err := loadSnapshot(basePath)
	if err != nil {
		return err
	}
	cand, err := loadSnapshot(candPath)
	if err != nil {
		return err
	}
	if base.Schema != cand.Schema {
		return fmt.Errorf("schema mismatch: baseline %s has schema %d, candidate %s has %d (regenerate the baseline)",
			basePath, base.Schema, candPath, cand.Schema)
	}
	// Name the differing tier explicitly before the generic config dump: a
	// quick-vs-large mixup is the common operator error and "tier" is the
	// word the CLI flags use.
	if base.Tier != cand.Tier || base.Quick != cand.Quick {
		return fmt.Errorf("workload mismatch: baseline %s ran tier %q but candidate %s ran tier %q — rerun both with the same -tier",
			basePath, tierLabel(base), candPath, tierLabel(cand))
	}
	if !reflect.DeepEqual(base.Config, cand.Config) {
		return fmt.Errorf("workload mismatch: both ran tier %q but configs differ: baseline %+v vs candidate %+v — rows cannot be aligned",
			tierLabel(base), base.Config, cand.Config)
	}

	baseTables := make(map[string]*exp.Table, len(base.Tables))
	for _, t := range base.Tables {
		baseTables[t.ID] = t
	}
	regressions := 0
	compared := 0
	for _, ct := range cand.Tables {
		bt, ok := baseTables[ct.ID]
		if !ok {
			fmt.Fprintf(w, "NEW TABLE %s (no baseline — not gated)\n", ct.ID)
			continue
		}
		delete(baseTables, ct.ID)
		if len(bt.Rows) != len(ct.Rows) {
			fmt.Fprintf(w, "REGRESSION %s: row count %d -> %d (an experiment instance appeared or vanished)\n",
				bt.ID, len(bt.Rows), len(ct.Rows))
			regressions++
			continue
		}
		for i := range ct.Rows {
			brow, crow := bt.Rows[i], ct.Rows[i]
			if len(brow) != len(crow) {
				fmt.Fprintf(w, "REGRESSION %s row %d: cell count %d -> %d\n", bt.ID, i, len(brow), len(crow))
				regressions++
				continue
			}
			for j := range crow {
				compared++
				if brow[j] != crow[j] {
					fmt.Fprintf(w, "REGRESSION %s row %d %q: %q -> %q\n",
						bt.ID, i, header(bt, j), brow[j], crow[j])
					regressions++
				}
			}
		}
	}
	for id := range baseTables {
		fmt.Fprintf(w, "REGRESSION: table %s vanished from the candidate\n", id)
		regressions++
	}
	if regressions > 0 {
		return fmt.Errorf("%d regression(s) vs %s", regressions, basePath)
	}
	fmt.Fprintf(w, "OK: %d cells identical to %s\n", compared, basePath)
	return nil
}

// tierLabel names a snapshot's workload tier, falling back to the legacy
// quick boolean for schema-2 documents that predate the Tier field.
func tierLabel(s *snapshot) string {
	if s.Tier != "" {
		return s.Tier
	}
	if s.Quick {
		return tierQuick
	}
	return tierFull
}

func header(t *exp.Table, j int) string {
	if j < len(t.Header) {
		return t.Header[j]
	}
	return fmt.Sprintf("col %d", j)
}

func loadSnapshot(path string) (*snapshot, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var s snapshot
	if err := json.NewDecoder(f).Decode(&s); err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	return &s, nil
}
