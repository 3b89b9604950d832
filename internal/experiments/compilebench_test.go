package experiments

import "testing"

// TestRunCompileBench runs experiment E14 end to end: the record must carry
// a real measurement for every field. Skipped in -short mode: the
// measurement loops take several seconds by design.
func TestRunCompileBench(t *testing.T) {
	if testing.Short() {
		t.Skip("E14 runs benchmark loops; skipped in -short mode")
	}
	rec, err := RunCompileBench()
	if err != nil {
		t.Fatal(err)
	}
	if rec.System != "figure1" || rec.Mutants != 145 || rec.SuiteCases != 2 {
		t.Fatalf("bad record header: %+v", rec)
	}
	if rec.CompileNsPerOp <= 0 || rec.NumSymbols <= 0 || rec.Configurations <= 0 {
		t.Fatalf("compile stats missing: %+v", rec)
	}
	for name, v := range map[string]int64{
		"sweep_ns_per_op":         rec.SweepNsPerOp,
		"sweep_ns_per_mutant":     rec.SweepNsPerMutant,
		"sweep_allocs_per_op":     rec.SweepAllocsPerOp,
		"json_parse_ns_per_op":    rec.JSONParseNsPerOp,
		"binary_decode_ns_per_op": rec.BinaryDecodeNsPerOp,
		"registry_hit_ns_per_op":  rec.RegistryHitNsPerOp,
	} {
		if v <= 0 {
			t.Errorf("%s = %d, want > 0", name, v)
		}
	}
	if rec.RegistryHitNsPerOp >= rec.JSONParseNsPerOp {
		t.Errorf("registry hit (%d ns) not cheaper than a JSON parse (%d ns)",
			rec.RegistryHitNsPerOp, rec.JSONParseNsPerOp)
	}
}
