// Command benchdiff compares a fresh scoutbench -benchjson run against the
// committed BENCH_hotpath.json baseline and fails (exit 1) when any
// experiment regressed in wall-clock — or in simulated Seeks (layout1) or
// open-loop p999 (load1), for experiments that record them — beyond the
// tolerance. CI runs it so the perf trajectory is enforced, not just
// recorded. Seek counts and load1's p999 come off the virtual clock and are
// deterministic, so those gates have no noise floor.
//
// Wall-clock comparisons across different machines are inherently noisy; the
// default tolerance (25%) absorbs typical CI-runner variance, and
// -max-regress (or the BENCH_TOLERANCE environment variable) widens it for
// noisier fleets. Experiments present in only one file are reported but
// never fail the diff, and experiments under -min-wall milliseconds in both
// files (scheduler-noise territory) are reported but never fail either.
//
// Usage:
//
//	scoutbench -exp fig3,fig13a -scale 0.05 -seqs 4 -benchjson BENCH_fresh.json
//	benchdiff -baseline BENCH_hotpath.json -fresh BENCH_fresh.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"reflect"
	"strconv"
	"strings"

	"scout/internal/benchfmt"
)

func load(path string) (benchfmt.File, error) {
	var bf benchfmt.File
	data, err := os.ReadFile(path)
	if err != nil {
		return bf, err
	}
	if err := json.Unmarshal(data, &bf); err != nil {
		return bf, fmt.Errorf("%s: %w", path, err)
	}
	return bf, nil
}

// notConfig names the benchfmt.File fields that describe the machine or
// the results rather than the run configuration: worker and GOMAXPROCS
// counts only change how fast the same work finishes, which is what the
// wall-clock gate measures.
var notConfig = map[string]bool{"Workers": true, "GOMAXPROCS": true, "TotalWallMS": true, "Experiments": true}

// configMismatch returns "field base vs fresh" for every run-configuration
// field (every benchfmt.File field outside notConfig, named by its JSON key)
// that differs between the two files. Runs under different configurations
// measure different work — a heavy-fault run is slower by design, a pinned
// shard count turns shard1's sweep into one column, a file backend adds
// real I/O — so any difference voids the comparison. scoutbench writes
// default settings as zero values, so only a real configuration change
// differs.
func configMismatch(base, fresh benchfmt.File) []string {
	vb, vf := reflect.ValueOf(base), reflect.ValueOf(fresh)
	var diff []string
	for i := 0; i < vb.NumField(); i++ {
		f := vb.Type().Field(i)
		if notConfig[f.Name] || vb.Field(i).Equal(vf.Field(i)) {
			continue
		}
		name, _, _ := strings.Cut(f.Tag.Get("json"), ",")
		diff = append(diff, fmt.Sprintf("%s %#v vs %#v", name, vb.Field(i).Interface(), vf.Field(i).Interface()))
	}
	return diff
}

func main() {
	var (
		baselinePath = flag.String("baseline", "BENCH_hotpath.json", "committed baseline JSON")
		freshPath    = flag.String("fresh", "BENCH_fresh.json", "freshly generated JSON to compare")
		maxRegress   = flag.Float64("max-regress", 0.25, "max per-experiment wall-clock regression (0.25 = +25%)")
		minWall      = flag.Float64("min-wall", 25, "ignore regressions when both baseline and fresh are under this many ms (noise-dominated)")
	)
	flag.Parse()

	if env := os.Getenv("BENCH_TOLERANCE"); env != "" {
		v, err := strconv.ParseFloat(env, 64)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchdiff: bad BENCH_TOLERANCE:", err)
			os.Exit(2)
		}
		*maxRegress = v
	}

	base, err := load(*baselinePath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(2)
	}
	fresh, err := load(*freshPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(2)
	}
	if diff := configMismatch(base, fresh); len(diff) > 0 {
		fmt.Fprintf(os.Stderr, "benchdiff: run configuration mismatch (%s) — comparison void\n", strings.Join(diff, ", "))
		os.Exit(2)
	}
	// File-backend wall clocks include real I/O, which is far noisier across
	// CI runners than compute time — widen the noise floor. Seeks still come
	// off the virtual clock and keep their exact, floorless gate.
	if base.Backend == "file" {
		*minWall *= 4
	}

	byID := map[string]benchfmt.Record{}
	for _, r := range base.Experiments {
		byID[r.ID] = r
	}

	fmt.Printf("%-26s %12s %12s %9s\n", "experiment", "baseline ms", "fresh ms", "delta")
	failed := false
	for _, fr := range fresh.Experiments {
		br, ok := byID[fr.ID]
		if !ok {
			fmt.Printf("%-26s %12s %12.1f %9s\n", fr.ID, "-", fr.WallMS, "new")
			continue
		}
		delete(byID, fr.ID)
		delta := 0.0
		if br.WallMS > 0 {
			delta = fr.WallMS/br.WallMS - 1
		}
		marker := ""
		if delta > *maxRegress {
			// A percentage gate on a few milliseconds is pure scheduler
			// noise: only experiments that take real time can regress.
			if br.WallMS < *minWall && fr.WallMS < *minWall {
				marker = "  (ignored: below min-wall)"
			} else {
				marker = "  REGRESSION"
				failed = true
			}
		}
		// Seeks are simulated on the virtual clock — fully deterministic,
		// so the same tolerance applies with no noise floor: any experiment
		// recording seeks in the baseline must keep recording them (a
		// fresh run that silently drops the metric would otherwise disarm
		// the gate) and must not regress past the tolerance.
		if br.Seeks > 0 {
			if fr.Seeks == 0 {
				marker += fmt.Sprintf("  seeks %d -> MISSING", br.Seeks)
				failed = true
			} else {
				seekDelta := float64(fr.Seeks)/float64(br.Seeks) - 1
				marker += fmt.Sprintf("  seeks %d -> %d (%+.1f%%)", br.Seeks, fr.Seeks, seekDelta*100)
				if seekDelta > *maxRegress {
					marker += "  SEEK REGRESSION"
					failed = true
				}
			}
		}
		// p999 under load is also virtual-clock deterministic: same exact
		// gate as Seeks, including the must-keep-recording rule.
		if br.P999MS > 0 {
			if fr.P999MS == 0 {
				marker += fmt.Sprintf("  p999 %.2fms -> MISSING", br.P999MS)
				failed = true
			} else {
				pDelta := fr.P999MS/br.P999MS - 1
				marker += fmt.Sprintf("  p999 %.2fms -> %.2fms (%+.1f%%)", br.P999MS, fr.P999MS, pDelta*100)
				if pDelta > *maxRegress {
					marker += "  P999 REGRESSION"
					failed = true
				}
			}
		}
		fmt.Printf("%-26s %12.1f %12.1f %+8.1f%%%s\n", fr.ID, br.WallMS, fr.WallMS, delta*100, marker)
	}
	for id := range byID {
		fmt.Printf("%-26s %12.1f %12s %9s\n", id, byID[id].WallMS, "-", "missing")
	}

	if failed {
		fmt.Fprintf(os.Stderr, "benchdiff: wall-clock, Seeks or p999 regression beyond %.0f%% — investigate or refresh the baseline\n", *maxRegress*100)
		os.Exit(1)
	}
	fmt.Printf("benchdiff: OK (tolerance %.0f%%)\n", *maxRegress*100)
}
