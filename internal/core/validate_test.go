package core

import (
	"math"
	"strings"
	"testing"

	"repro/internal/gnn"
)

// Config.Validate checks what needs no dataset, names the rejected value in
// its error, and is what NewEngine rejects first: a config that fails it fails
// NewEngine with the same error, dataset or not.
func TestConfigValidate(t *testing.T) {
	valid := func() Config {
		return Config{Plat: smallPlatform(), Model: gnn.Config{Kind: gnn.SAGE, Dims: []int{16, 16, 5}},
			LR: 0.3, BatchSize: 64, Fanouts: []int{5, 5}}
	}
	if err := valid().Validate(); err != nil {
		t.Fatalf("a config without a dataset is rejected: %v", err)
	}
	cfg := valid()
	cfg.Pipeline = PipelinePrefetch
	if err := cfg.Validate(); err != nil {
		t.Fatalf("prefetch rejected: %v", err)
	}
	for _, tc := range []struct {
		name   string
		mutate func(*Config)
		want   string
	}{
		{"zero lr", func(c *Config) { c.LR = 0 }, "learning rate 0"},
		{"negative lr", func(c *Config) { c.LR = -0.5 }, "learning rate -0.5"},
		{"NaN lr", func(c *Config) { c.LR = float32(math.NaN()) }, "learning rate NaN"},
		{"+Inf lr", func(c *Config) { c.LR = float32(math.Inf(1)) }, "learning rate +Inf"},
		{"zero batch", func(c *Config) { c.BatchSize = 0 }, "batch size 0"},
		{"negative batch", func(c *Config) { c.BatchSize = -3 }, "batch size -3"},
		{"pipeline mode", func(c *Config) { c.Pipeline = PipelineMode(7) }, "pipeline mode 7"},
		{"one dim", func(c *Config) { c.Model.Dims = []int{16} }, "[16]"},
		{"zero dim", func(c *Config) { c.Model.Dims = []int{16, 0, 5} }, "[16 0 5]"},
		{"model kind", func(c *Config) { c.Model.Kind = gnn.Kind(9) }, "kind 9"},
		{"negative fan-out", func(c *Config) { c.Fanouts = []int{-1, 4} }, "Fanouts [-1 4]: sampler: negative fanout -1"},
		{"too few fan-outs", func(c *Config) { c.Fanouts = []int{25} }, "Fanouts [25]: 1 fan-outs for a 2-layer model"},
		{"too many fan-outs", func(c *Config) { c.Fanouts = []int{25, 10, 5} }, "Fanouts [25 10 5]: 3 fan-outs"},
		{"no fan-outs", func(c *Config) { c.Fanouts = []int{} }, "Fanouts []: 0 fan-outs"},
		{"nil fan-outs", func(c *Config) { c.Fanouts = nil }, "Fanouts []: 0 fan-outs"},
	} {
		cfg := valid()
		tc.mutate(&cfg)
		err := cfg.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: Validate error %v, want one naming %q", tc.name, err, tc.want)
		}
		if _, eerr := NewEngine(cfg); eerr == nil || eerr.Error() != err.Error() {
			t.Fatalf("%s: NewEngine error %v, want Validate's %v", tc.name, eerr, err)
		}
	}
}
