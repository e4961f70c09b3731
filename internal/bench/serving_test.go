package bench

import (
	"strings"
	"testing"
)

// Extension: serving latency must respond monotonically to the batch-window
// knob, throughput and tail latency to the cache-size knob, and the analytic
// serving model must hold its stated ±35% service-time band on every row.
func TestExtServeShape(t *testing.T) {
	tb, err := extServe(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 6 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	var prevP50, prevHit, prevRPS, prevP99 float64
	for i, row := range tb.Rows {
		sweep := row[0].render()
		hit, p50, p99, rps := row[5].Value, row[6].Value, row[7].Value, row[8].Value
		if errPct := row[11].Value; errPct > 35 {
			t.Fatalf("row %d: analytic service time %0.f%% off the executed clock", i, errPct)
		}
		switch sweep {
		case "window":
			if i > 0 && p50 <= prevP50 {
				t.Fatalf("window sweep: p50 %v not above %v — latency not monotone in window", p50, prevP50)
			}
			prevP50 = p50
		case "cache":
			if row[3].Value > 0 { // rows after the cold baseline
				if hit <= prevHit {
					t.Fatalf("cache sweep: hit rate %v%% not above %v%%", hit, prevHit)
				}
				if rps <= prevRPS {
					t.Fatalf("cache sweep: throughput %v not above %v", rps, prevRPS)
				}
				if p99 >= prevP99 {
					t.Fatalf("cache sweep: p99 %v not below %v", p99, prevP99)
				}
			}
			prevHit, prevRPS, prevP99 = hit, rps, p99
		default:
			t.Fatalf("unknown sweep %q", sweep)
		}
	}
}

// Extension: at an equal 3-device budget the mixed CPU+GPU+FPGA pool must
// achieve strictly lower mean latency than both homogeneous pools in every
// load regime, the analytic per-device prediction must hold the ±35% band on
// every row, and the mixed pool's routing must be genuinely heterogeneous —
// every device kind takes batches under overload.
func TestExtServeHeteroShape(t *testing.T) {
	tb, err := extServeHetero(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 6 {
		t.Fatalf("rows = %d, want 6 (2 loads x 3 fleets)", len(tb.Rows))
	}
	for group := 0; group < 2; group++ {
		rows := tb.Rows[3*group : 3*group+3]
		gpuMean, fpgaMean, mixedMean := rows[0][4].Value, rows[1][4].Value, rows[2][4].Value
		if mixedMean >= gpuMean || mixedMean >= fpgaMean {
			t.Fatalf("%s: mixed mean %.3fms not strictly below homogeneous %.3f/%.3fms",
				rows[0][0].render(), mixedMean, gpuMean, fpgaMean)
		}
		for i, row := range rows {
			if errPct := row[10].Value; errPct > 35 {
				t.Fatalf("%s row %d: analytic service %.0f%% off the executed clock",
					row[0].render(), i, errPct)
			}
		}
	}
	// Overload mixed row: the per-kind batch split C/G/F must have every
	// kind serving.
	split := tb.Rows[5][11].render()
	for i, part := range strings.Split(split, "/") {
		if part == "0" {
			t.Fatalf("overload mixed split %q: kind %d served nothing", split, i)
		}
	}
}
