package main

import (
	"strings"
	"testing"
)

// TestCheckFlagsRefusals pins every flag value the workflow refuses
// before calibration starts, each with an error naming the value, and
// that the defaults pass.
func TestCheckFlagsRefusals(t *testing.T) {
	ok := cliFlags{platform: "rtx4090", model: "sage", priority: "balance"}
	if _, _, err := checkFlags(ok); err != nil {
		t.Fatalf("default flags refused: %v", err)
	}
	for _, tc := range []struct {
		name string
		edit func(*cliFlags)
		want string
	}{
		{"platform", func(f *cliFlags) { f.platform = "tpu9" }, `unknown platform "tpu9"`},
		{"model", func(f *cliFlags) { f.model = "mlp" }, `unknown model "mlp"`},
		{"priority", func(f *cliFlags) { f.priority = "fast" }, `unknown priority "fast"`},
		{"precision", func(f *cliFlags) { f.precision = "bf16" }, `unknown precision "bf16"`},
		{"policy", func(f *cliFlags) { f.policies = "lru,mru" }, `unknown cache policy "mru"`},
		{"negative procs", func(f *cliFlags) { f.procs = -1 }, "-procs -1"},
		{"negative devices", func(f *cliFlags) { f.devices = -1 }, "-devices -1 out of range"},
		{"devices above platform", func(f *cliFlags) { f.devices = 2 }, `-devices 2 out of range for platform "rtx4090"`},
	} {
		f := ok
		tc.edit(&f)
		if _, _, err := checkFlags(f); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want one containing %q", tc.name, err, tc.want)
		}
	}
}
