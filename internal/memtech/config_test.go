package memtech_test

import (
	"strings"
	"testing"

	"lpmem/internal/energy"
	"lpmem/internal/memtech"
)

// TestPresetsValidate: every shipped preset must pass its own validation
// and build a model — a preset that cannot be instantiated is dead
// configuration.
func TestPresetsValidate(t *testing.T) {
	names := memtech.Presets()
	if len(names) == 0 {
		t.Fatal("no presets registered")
	}
	for _, name := range names {
		cfg, err := memtech.Preset(name)
		if err != nil {
			t.Fatalf("Preset(%q): %v", name, err)
		}
		if err := cfg.Validate(); err != nil {
			t.Errorf("preset %q does not validate: %v", name, err)
		}
		if _, err := memtech.New(energy.DefaultMemoryModel(), cfg); err != nil {
			t.Errorf("preset %q does not build: %v", name, err)
		}
	}
	if _, err := memtech.Preset("no-such-preset"); err == nil {
		t.Fatal("unknown preset must error")
	}
}

// TestConfigValidateRejects walks the invalid corners field by field.
func TestConfigValidateRejects(t *testing.T) {
	valid, err := memtech.Preset("sram-hp-65")
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		mut  func(*memtech.Config)
		want string
	}{
		{"tech too small", func(c *memtech.Config) { c.Technology = 0.01 }, "technology"},
		{"tech too large", func(c *memtech.Config) { c.Technology = 0.5 }, "technology"},
		{"bad data cell", func(c *memtech.Config) { c.DataCell = "ulp" }, "cell type"},
		{"bad peripheral cell", func(c *memtech.Config) { c.PeripheralCell = "" }, "cell type"},
		{"zero banks", func(c *memtech.Config) { c.UCABankCount = 0 }, "bank count"},
		{"too many banks", func(c *memtech.Config) { c.UCABankCount = 128 }, "bank count"},
		{"gated with zero loss", func(c *memtech.Config) {
			c.ArrayPowerGating = true
			c.PowerGatingPerformanceLoss = 0
		}, "performance loss"},
		{"gated with huge loss", func(c *memtech.Config) {
			*c = c.WithAllGating(0.9)
		}, "performance loss"},
		{"zero page", func(c *memtech.Config) { c.PageSize = 0 }, "page size"},
		{"non-pow2 page", func(c *memtech.Config) { c.PageSize = 1000 }, "page size"},
		{"zero burst", func(c *memtech.Config) { c.BurstLength = 0 }, "burst length"},
		{"non-pow2 burst", func(c *memtech.Config) { c.BurstLength = 12 }, "burst length"},
	}
	for _, tc := range cases {
		cfg := valid
		tc.mut(&cfg)
		err := cfg.Validate()
		if err == nil {
			t.Errorf("%s: validated, want error", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
	// The ungated zero loss stays legal: the budget is only consulted
	// when a switch is on.
	cfg := valid
	cfg.PowerGatingPerformanceLoss = 0
	if err := cfg.Validate(); err != nil {
		t.Errorf("ungated config with zero loss budget should validate: %v", err)
	}
}

// TestCellTypesOrder pins the canonical ordering the tables and property
// tests iterate in.
func TestCellTypesOrder(t *testing.T) {
	got := memtech.CellTypes()
	want := []memtech.CellType{memtech.CellHP, memtech.CellLOP, memtech.CellLSTP}
	if len(got) != len(want) {
		t.Fatalf("CellTypes() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("CellTypes() = %v, want %v", got, want)
		}
	}
	if err := memtech.CellType("dram").Validate(); err == nil {
		t.Fatal("invalid cell type must error")
	}
}
