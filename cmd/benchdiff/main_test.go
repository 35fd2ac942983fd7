package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"scout/internal/benchfmt"
)

// TestMain doubles as the benchdiff entry point when re-exec'd: the
// void-comparison and regression gates end in os.Exit, so the only way to
// test them is to run the real binary. The test binary re-invokes itself
// with BENCHDIFF_BE_MAIN=1, which routes straight into main().
func TestMain(m *testing.M) {
	if os.Getenv("BENCHDIFF_BE_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// writeBench marshals a benchfmt.File into dir and returns its path.
func writeBench(t *testing.T, dir, name string, f benchfmt.File) string {
	t.Helper()
	data, err := json.Marshal(f)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// runBenchdiff re-execs the test binary as benchdiff against the two files.
func runBenchdiff(t *testing.T, baseline, fresh benchfmt.File) (output string, exitCode int) {
	t.Helper()
	dir := t.TempDir()
	cmd := exec.Command(os.Args[0],
		"-baseline", writeBench(t, dir, "base.json", baseline),
		"-fresh", writeBench(t, dir, "fresh.json", fresh))
	cmd.Env = append(os.Environ(), "BENCHDIFF_BE_MAIN=1", "BENCH_TOLERANCE=")
	var buf strings.Builder
	cmd.Stdout = &buf
	cmd.Stderr = &buf
	err := cmd.Run()
	if err == nil {
		return buf.String(), 0
	}
	ee, ok := err.(*exec.ExitError)
	if !ok {
		t.Fatalf("benchdiff: %v", err)
	}
	return buf.String(), ee.ExitCode()
}

// bench returns a minimal comparable file with one load1 record.
func bench(p999 float64) benchfmt.File {
	return benchfmt.File{
		Scale: 0.05, Sequences: 4, Seed: 7,
		Experiments: []benchfmt.Record{{ID: "load1", WallMS: 100, P999MS: p999}},
	}
}

// assertVoid checks a void comparison: exit 2 and the differing JSON field
// named in the mismatch line.
func assertVoid(t *testing.T, out string, code int, field string) {
	t.Helper()
	if code != 2 {
		t.Fatalf("mismatched %s exited %d, want 2\n%s", field, code, out)
	}
	if !strings.Contains(out, "run configuration mismatch") || !strings.Contains(out, field+" ") {
		t.Errorf("output does not name the differing field %q:\n%s", field, out)
	}
}

// TestArrivalConfigMismatchVoids: offered-load points measured under
// different arrival configurations are different experiments — any mismatch
// in process, rate, class mix or patience must void the comparison (exit 2)
// rather than report a bogus regression.
func TestArrivalConfigMismatchVoids(t *testing.T) {
	mutate := []struct {
		name  string
		field string
		mod   func(*benchfmt.File)
	}{
		{"process", "arrivals", func(f *benchfmt.File) { f.Arrivals = "bursty" }},
		{"rate", "arrival_rate", func(f *benchfmt.File) { f.ArrivalRate = 4 }},
		{"classes", "classes", func(f *benchfmt.File) { f.Classes = "uniform" }},
		{"patience", "patience_ms", func(f *benchfmt.File) { f.PatienceMS = 250 }},
	}
	for _, tc := range mutate {
		t.Run(tc.name, func(t *testing.T) {
			fresh := bench(50)
			tc.mod(&fresh)
			out, code := runBenchdiff(t, bench(50), fresh)
			assertVoid(t, out, code, tc.field)
		})
	}
}

// TestArrivalDefaultsComparable: a seed-era baseline with no arrival fields
// must stay comparable with a fresh default run — scoutbench normalizes the
// default spellings to empty, so both sides are zero-valued.
func TestArrivalDefaultsComparable(t *testing.T) {
	out, code := runBenchdiff(t, bench(50), bench(50))
	if code != 0 {
		t.Fatalf("default arrival configs voided the comparison (exit %d):\n%s", code, out)
	}
	if !strings.Contains(out, "benchdiff: OK") {
		t.Errorf("missing OK line:\n%s", out)
	}
}

// TestShardConfigMismatchVoids: a pinned shard count turns shard1 from a
// full sweep into a single column — comparing the two must be void (exit 2),
// and two runs pinned to the same count must stay comparable.
func TestShardConfigMismatchVoids(t *testing.T) {
	fresh := bench(50)
	fresh.Shards = 8
	out, code := runBenchdiff(t, bench(50), fresh)
	assertVoid(t, out, code, "shards")

	base := bench(50)
	base.Shards = 8
	out, code = runBenchdiff(t, base, fresh)
	if code != 0 {
		t.Fatalf("matching pinned shard counts voided the comparison (exit %d):\n%s", code, out)
	}
}

// TestReplicationConfigMismatchVoids: a pinned replication degree or hedge
// threshold changes what ha1 measures — replica sweeps, failover probes and
// hedged duplicates are real work — so any mismatch voids the comparison
// (exit 2), while two runs pinned identically stay comparable.
func TestReplicationConfigMismatchVoids(t *testing.T) {
	mutate := []struct {
		name string
		mod  func(*benchfmt.File)
	}{
		{"replicas", func(f *benchfmt.File) { f.Replicas = 2 }},
		{"hedge", func(f *benchfmt.File) { f.Hedge = 1.5 }},
	}
	for _, tc := range mutate {
		t.Run(tc.name, func(t *testing.T) {
			fresh := bench(50)
			tc.mod(&fresh)
			out, code := runBenchdiff(t, bench(50), fresh)
			assertVoid(t, out, code, tc.name)
		})
	}

	base, fresh := bench(50), bench(50)
	base.Replicas, base.Hedge = 2, 1.5
	fresh.Replicas, fresh.Hedge = 2, 1.5
	out, code := runBenchdiff(t, base, fresh)
	if code != 0 {
		t.Fatalf("matching replication pins voided the comparison (exit %d):\n%s", code, out)
	}
}

// TestP999Gate pins the deterministic p999 gate: regressions beyond the
// tolerance fail (exit 1), improvements and in-tolerance drift pass, and a
// fresh run that silently drops the metric fails — a disarmed gate is a
// regression too.
func TestP999Gate(t *testing.T) {
	cases := []struct {
		name       string
		base, new  float64
		wantCode   int
		wantOutput string
	}{
		{"regression", 50, 100, 1, "P999 REGRESSION"},
		{"improvement", 100, 50, 0, "benchdiff: OK"},
		{"within tolerance", 100, 110, 0, "benchdiff: OK"},
		{"metric dropped", 50, 0, 1, "MISSING"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			out, code := runBenchdiff(t, bench(tc.base), bench(tc.new))
			if code != tc.wantCode {
				t.Fatalf("exited %d, want %d\n%s", code, tc.wantCode, out)
			}
			if !strings.Contains(out, tc.wantOutput) {
				t.Errorf("output missing %q:\n%s", tc.wantOutput, out)
			}
		})
	}
}

// TestConfigMismatchCoversEveryField: every benchfmt.File field except the
// machine facts (workers, gomaxprocs), total_wall_ms and the experiments is
// run configuration — a new field joins the void check without a new
// clause. Each configuration field, set on the fresh side alone, is named
// in the mismatch; machine facts never void, and several differing fields
// are all named.
func TestConfigMismatchCoversEveryField(t *testing.T) {
	zero := benchfmt.File{}
	typ := reflect.TypeOf(zero)
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		name, _, _ := strings.Cut(f.Tag.Get("json"), ",")
		fresh := reflect.New(typ).Elem()
		switch v := fresh.Field(i); v.Kind() {
		case reflect.String:
			v.SetString("x")
		case reflect.Int, reflect.Int64:
			v.SetInt(3)
		case reflect.Float64:
			v.SetFloat(1.5)
		case reflect.Slice:
			v.Set(reflect.ValueOf([]benchfmt.Record{{ID: "fig3"}}))
		default:
			t.Fatalf("field %s: unhandled kind %s", f.Name, v.Kind())
		}
		diff := configMismatch(zero, fresh.Interface().(benchfmt.File))
		switch name {
		case "workers", "gomaxprocs", "total_wall_ms", "experiments":
			if len(diff) != 0 {
				t.Errorf("%s is not run configuration but voided: %v", name, diff)
			}
		default:
			if len(diff) != 1 || !strings.HasPrefix(diff[0], name+" ") {
				t.Errorf("%s: mismatch %v, want exactly the %s field", f.Name, diff, name)
			}
		}
	}

	base, fresh := bench(50), bench(50)
	fresh.Shards, fresh.Replicas, fresh.GOMAXPROCS = 8, 2, 64
	out, code := runBenchdiff(t, base, fresh)
	assertVoid(t, out, code, "shards")
	assertVoid(t, out, code, "replicas")
	if strings.Contains(out, "gomaxprocs") {
		t.Errorf("machine fact named as a mismatch:\n%s", out)
	}
}
