package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"github.com/nevesim/neve/internal/workload"
)

// TestRunReportsContract runs the tables workload briefly, untraced and
// traced, and checks the last line of its output.
func TestRunReportsContract(t *testing.T) {
	for _, c := range []struct {
		trace string
		want  int
	}{{"0", len(endToEnd)}, {"1", len(perLayer())}} {
		var out, errs bytes.Buffer
		code := run([]string{"--workload", "tables", "--seed", "3", "--seconds", "0.2", "--trace", c.trace, "--root", ".."}, &out, &errs)
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var res struct {
			Correct           bool
			Attempted, Failed int
			Metrics           map[string]metric
		}
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatalf("trace %s: last line is not JSON: %v\n%s", c.trace, err, errs.String())
		}
		if code != 0 || !res.Correct || res.Failed != 0 || res.Attempted == 0 || len(res.Metrics) != c.want {
			t.Errorf("trace %s: exit %d, correct %v, %d of %d failed, %d metrics (want %d)\n%s",
				c.trace, code, res.Correct, res.Failed, res.Attempted, len(res.Metrics), c.want, out.String())
		}
	}
}

func TestRunRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "tables", "--trace", "2"},
		{"--workload", "tables", "--root", "/nonexistent"},
	} {
		var out, errs bytes.Buffer
		if code := run(args, &out, &errs); code != 2 || out.Len() != 0 {
			t.Errorf("%q: exit %d with output %q, want exit 2 and no output", args, code, out.String())
		}
	}
}

// TestTracedSMPCellUnderRace runs one parallel SMP cell with every vCPU's
// API wrapped: under -race this proves the wrappers keep their state per
// vCPU.
func TestTracedSMPCellUnderRace(t *testing.T) {
	p, _ := workload.SMPProfileByName("fanout")
	c := smpCell{"smp8", p}
	spec := smpSpec(c.spec, false)
	tr := newTracer()
	seq, par := runSMP(spec, c, false, nil, 0), runSMP(spec, c, true, tr, 0)
	if seq.err != nil || par.err != nil || seq.fp != par.fp {
		t.Fatalf("seq %v / par %v: fingerprints %q vs %q", seq.err, par.err, seq.fp, par.fp)
	}
	yields := 0
	for _, ys := range par.yields {
		yields += len(ys.Waits)
	}
	if yields == 0 || len(tr.snapshot()) != 2 {
		t.Errorf("%d yields timed, %d spans recorded", yields, len(tr.snapshot()))
	}
}
