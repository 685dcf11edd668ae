// Package memtech is the configurable memory-technology layer: it prices
// the same access streams the rest of the repository produces (caches,
// hierarchies, partitioned SRAMs) under *modern* technology assumptions —
// leakage-dominated cell libraries, power-gated arrays and banked DRAM
// main memories — instead of the dynamic-energy-only 0.18 µm SRAM model
// every DATE'03 experiment was calibrated to.
//
// The entry point is Config, a declarative description following the
// CACTI input schema (technology node, hp/lop/lstp cell types for the
// data and peripheral arrays, UCA bank count, per-structure power-gating
// switches with a Power_Gating_Performance_Loss-style wake budget, and
// DRAM page/burst geometry). A Config plus the base energy.MemoryModel
// yields:
//
//   - Model: per-access dynamic energy and per-cycle static (leakage)
//     power scaled by cell type and technology node (model.go);
//   - Gating: a two-state (active/gated) power-gating machine with
//     state-transition energy and latency penalties accounted per idle
//     interval (gating.go);
//   - DRAM: a banked main-memory model with row-buffer hit/miss/conflict
//     pricing and burst transfers (dram.go).
//
// Like every model in this repository the calibration is relative, not
// absolute: all scale factors are monotone in the physical direction
// (smaller nodes leak more, low-standby cells leak less and switch
// slower), which is what preserves the papers' comparative claims under
// substitution (see DESIGN.md, "Substitutions").
//
//lint:hotpath
package memtech

import (
	"fmt"
	"math"
	"sort"
)

// CellType names an ITRS transistor flavour, the CACTI
// Data_array_cell_type vocabulary: high-performance (fast, leaky),
// low-operating-power (cheap to switch) and low-standby-power (very low
// leakage, slow).
type CellType string

// The three ITRS cell types, ordered fastest/leakiest first.
const (
	CellHP   CellType = "hp"
	CellLOP  CellType = "lop"
	CellLSTP CellType = "lstp"
)

// CellTypes returns the valid cell types in canonical (hp, lop, lstp)
// order.
func CellTypes() []CellType { return []CellType{CellHP, CellLOP, CellLSTP} }

// Validate reports whether the cell type is one of hp/lop/lstp.
func (c CellType) Validate() error {
	switch c {
	case CellHP, CellLOP, CellLSTP:
		return nil
	}
	return fmt.Errorf("memtech: unknown cell type %q (want hp, lop or lstp)", string(c))
}

// Config is the declarative technology description. Field names follow
// the CACTI input schema (SNIPPETS.md snippet 3) so a config can be read
// as a CACTI deck: technology node, per-array cell types, UCA bank
// count, the five power-gating switches with their allowed performance
// loss, and the DRAM main-memory geometry.
type Config struct {
	// Technology is the process node in micrometres (CACTI `technology`),
	// e.g. 0.18, 0.09, 0.065. Smaller nodes switch cheaper and leak more.
	Technology float64 `json:"technology"`

	// DataCell and PeripheralCell select the cell flavour of the data
	// array and its periphery (decoders, sense amps, drivers) — CACTI's
	// Data_array_cell_type / Data_array_peripheral_type.
	DataCell       CellType `json:"data_array_cell_type"`
	PeripheralCell CellType `json:"data_array_peripheral_type"`

	// UCABankCount is the number of independently addressed sub-banks of
	// the SRAM array (CACTI UCA_bank_count); bank selection is priced
	// through the base model's decoder term.
	UCABankCount int `json:"uca_bank_count"`

	// The power-gating switches (CACTI Array_Power_Gating,
	// WL_Power_Gating, CL_Power_Gating, Bitline_floating,
	// Interconnect_Power_Gating). Each enabled structure contributes its
	// share of the gateable static power; see Model.Gating.
	ArrayPowerGating        bool `json:"array_power_gating"`
	WLPowerGating           bool `json:"wl_power_gating"`
	CLPowerGating           bool `json:"cl_power_gating"`
	BitlineFloating         bool `json:"bitline_floating"`
	InterconnectPowerGating bool `json:"interconnect_power_gating"`

	// PowerGatingPerformanceLoss is the fraction of access time the
	// design may lose to sleep-transistor insertion (CACTI
	// Power_Gating_Performance_Loss, e.g. 0.01). A larger budget permits
	// smaller sleep transistors: slower wake-up but a cheaper one, so the
	// gating break-even interval shrinks. Must be in (0, 0.5]; it is
	// only consulted when at least one gating switch is on.
	PowerGatingPerformanceLoss float64 `json:"power_gating_performance_loss"`

	// PageSize is the DRAM row-buffer size in bytes (CACTI `page_size`).
	PageSize uint32 `json:"page_size"`
	// BurstLength is the bytes moved per DRAM burst beat (CACTI
	// `burst_length`); a transfer of w bytes costs ceil(w/BurstLength)
	// bursts.
	BurstLength int `json:"burst_length"`
}

// Validate checks every field of the configuration.
func (c Config) Validate() error {
	if math.IsNaN(c.Technology) || c.Technology < 0.022 || c.Technology > 0.25 {
		return fmt.Errorf("memtech: technology %v µm outside the modelled [0.022, 0.25] band", c.Technology)
	}
	if err := c.DataCell.Validate(); err != nil {
		return fmt.Errorf("memtech: data array: %w", err)
	}
	if err := c.PeripheralCell.Validate(); err != nil {
		return fmt.Errorf("memtech: peripheral array: %w", err)
	}
	if c.UCABankCount < 1 || c.UCABankCount > 64 {
		return fmt.Errorf("memtech: UCA bank count %d outside [1, 64]", c.UCABankCount)
	}
	if c.GatingEnabled() {
		if math.IsNaN(c.PowerGatingPerformanceLoss) ||
			c.PowerGatingPerformanceLoss <= 0 || c.PowerGatingPerformanceLoss > 0.5 {
			return fmt.Errorf("memtech: power-gating performance loss %v outside (0, 0.5]",
				c.PowerGatingPerformanceLoss)
		}
	}
	if c.PageSize == 0 || c.PageSize&(c.PageSize-1) != 0 {
		return fmt.Errorf("memtech: page size %d must be a positive power of two", c.PageSize)
	}
	if c.BurstLength < 1 || c.BurstLength&(c.BurstLength-1) != 0 {
		return fmt.Errorf("memtech: burst length %d must be a positive power of two", c.BurstLength)
	}
	return nil
}

// GatingEnabled reports whether any of the five gating switches is on.
func (c Config) GatingEnabled() bool {
	return c.ArrayPowerGating || c.WLPowerGating || c.CLPowerGating ||
		c.BitlineFloating || c.InterconnectPowerGating
}

// WithAllGating returns a copy with every gating switch enabled and the
// given performance-loss budget.
func (c Config) WithAllGating(perfLoss float64) Config {
	c.ArrayPowerGating = true
	c.WLPowerGating = true
	c.CLPowerGating = true
	c.BitlineFloating = true
	c.InterconnectPowerGating = true
	c.PowerGatingPerformanceLoss = perfLoss
	return c
}

// presets maps the named technology configurations the experiments and
// the sweep adapter start from. Every preset validates.
var presets = map[string]Config{
	// The legacy calibration point: the 0.18 µm hp SRAM every DATE'03
	// experiment was priced with, now expressible declaratively.
	"sram-hp-180": {
		Technology: 0.18, DataCell: CellHP, PeripheralCell: CellHP,
		UCABankCount: 1, PageSize: 8192, BurstLength: 8,
	},
	// Modern leakage-dominated nodes, one per cell flavour.
	"sram-hp-65": {
		Technology: 0.065, DataCell: CellHP, PeripheralCell: CellHP,
		UCABankCount: 1, PageSize: 8192, BurstLength: 8,
	},
	"sram-lop-65": {
		Technology: 0.065, DataCell: CellLOP, PeripheralCell: CellLOP,
		UCABankCount: 1, PageSize: 8192, BurstLength: 8,
	},
	"sram-lstp-65": {
		Technology: 0.065, DataCell: CellLSTP, PeripheralCell: CellLSTP,
		UCABankCount: 1, PageSize: 8192, BurstLength: 8,
	},
	// The fully gated low-standby configuration E22 and the sweep
	// adapter's gated points build on.
	"sram-lstp-gated-65": {
		Technology: 0.065, DataCell: CellLSTP, PeripheralCell: CellLSTP,
		UCABankCount: 1, PageSize: 8192, BurstLength: 8,
		ArrayPowerGating: true, WLPowerGating: true, CLPowerGating: true,
		BitlineFloating: true, InterconnectPowerGating: true,
		PowerGatingPerformanceLoss: 0.01,
	},
	// A DDR3-shaped banked main memory (8 KiB pages, 8-byte bursts).
	"dram-ddr3-65": {
		Technology: 0.065, DataCell: CellLOP, PeripheralCell: CellLOP,
		UCABankCount: 8, PageSize: 8192, BurstLength: 8,
	},
}

// Presets lists the preset names, sorted.
func Presets() []string {
	names := make([]string, 0, len(presets))
	for n := range presets {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Preset returns the named configuration.
func Preset(name string) (Config, error) {
	c, ok := presets[name]
	if !ok {
		return Config{}, fmt.Errorf("memtech: unknown preset %q (known: %v)", name, Presets())
	}
	return c, nil
}
