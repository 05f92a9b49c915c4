package drrgossip

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"drrgossip/internal/agg"
)

// answerDigest hashes every bit of an answer that a pipeline refactor
// must preserve: the consensus and moment values, the full per-node
// vector, the consensus flag, the bill and its per-phase split, and the
// surviving population. Trees is pinned separately so a table row shows
// it in the clear.
func answerDigest(a *Answer) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	u64 := func(x uint64) {
		binary.LittleEndian.PutUint64(buf[:], x)
		h.Write(buf[:])
	}
	f64 := func(x float64) { u64(math.Float64bits(x)) }
	f64(a.Value)
	f64(a.Mean)
	f64(a.Variance)
	f64(a.Std)
	u64(uint64(len(a.PerNode)))
	for _, v := range a.PerNode {
		f64(v)
	}
	if a.Consensus {
		u64(1)
	} else {
		u64(0)
	}
	u64(uint64(a.Cost.Runs))
	u64(uint64(a.Cost.Rounds))
	u64(uint64(a.Cost.Messages))
	u64(uint64(a.Cost.Drops))
	for _, pc := range a.PhaseCosts {
		h.Write([]byte(pc.Phase))
		u64(uint64(pc.Rounds))
		u64(uint64(pc.Messages))
		u64(uint64(pc.Drops))
		u64(uint64(pc.Calls))
	}
	u64(uint64(a.Alive))
	return h.Sum64()
}

// TestPipelineDigests pins every single-run query on every pipeline
// shape bit for bit: dense and routed transport, lossy links, static
// crashes and a mid-run crash plan. Each row is one (config, query)
// pair; a drift anywhere in an answer changes its digest.
func TestPipelineDigests(t *testing.T) {
	crashPlan, err := ParseFaultPlan("crash:0.2@0.5")
	if err != nil {
		t.Fatal(err)
	}
	burstPlan, err := ParseFaultPlan("loss:0.1@0.2..0.8")
	if err != nil {
		t.Fatal(err)
	}
	flakyPartPlan, err := ParseFaultPlan("flaky:0.2:0.5@0.2..0.8;part:2@0.3..0.7")
	if err != nil {
		t.Fatal(err)
	}
	configs := map[string]Config{
		"complete":       {N: 512, Seed: 3},
		"complete-lossy": {N: 480, Seed: 4, Loss: 0.05, CrashFraction: 0.1},
		"complete-crash": {N: 400, Seed: 5, Faults: crashPlan},
		"chord":          {N: 512, Seed: 6, Topology: Chord},
		"chord-lossy":    {N: 384, Seed: 7, Topology: Chord, Loss: 0.05},
		"smallworld":     {N: 500, Seed: 8, Topology: SmallWorld},
		"torus":          {N: 504, Seed: 9, Topology: Torus},
		// Lossy landmark routing under link-level faults: a loss burst,
		// and a flaky region overlapping a partition.
		"smallworld-lossy-burst": {N: 500, Seed: 10, Topology: SmallWorld, Loss: 0.02, Faults: burstPlan},
		"torus-flaky-part":       {N: 504, Seed: 11, Topology: Torus, Loss: 0.02, Faults: flakyPartPlan},
	}
	queries := map[string]func(v []float64) Query{
		"max":     MaxOf,
		"min":     MinOf,
		"sum":     SumOf,
		"count":   CountOf,
		"average": AverageOf,
		"rank":    func(v []float64) Query { return RankOf(v, 500) },
		"moments": MomentsOf,
	}
	type row struct {
		config, query string
		trees         int
		digest        uint64
	}
	rows := []row{
		{"complete", "max", 58, 0xd20a35f93b17f2ab},
		{"complete", "min", 58, 0xb328a57dba0b650f},
		{"complete", "sum", 58, 0xf8a9b85d3ad6f812},
		{"complete", "count", 58, 0x8d1db272f6b75523},
		{"complete", "average", 58, 0xb0a263c883f2df86},
		{"complete", "rank", 58, 0xdd076ca3b082cd83},
		{"complete", "moments", 58, 0xd0ffeed522486fac},
		{"complete-lossy", "max", 50, 0x723681afb57f7615},
		{"complete-lossy", "min", 50, 0x15276b55c91c4728},
		{"complete-lossy", "sum", 50, 0x4f78ad1c4f976e09},
		{"complete-lossy", "count", 50, 0xf723925ec02d3ac0},
		{"complete-lossy", "average", 50, 0x2321d2fb6499d4f0},
		{"complete-lossy", "rank", 50, 0xb6737bb1171425a7},
		{"complete-lossy", "moments", 50, 0x9202cdbf984c0667},
		{"complete-crash", "max", 44, 0x450c6103fa428ffc},
		{"complete-crash", "min", 44, 0x6a5cefeca846b6ae},
		{"complete-crash", "sum", 44, 0xa560d58ccd78d4ad},
		{"complete-crash", "count", 44, 0xa6c11fdc0ff46a69},
		{"complete-crash", "average", 44, 0x4105c1e351ef444a},
		{"complete-crash", "rank", 44, 0x1c68f75f855f3d29},
		{"chord", "max", 24, 0x23d3229a17d034a0},
		{"chord", "min", 24, 0x61cafffbb45e411b},
		{"chord", "sum", 24, 0x22064bb2386785a},
		{"chord", "count", 24, 0x352b6ff15fef6d4d},
		{"chord", "average", 24, 0xe66e61156d7bf8cb},
		{"chord", "rank", 24, 0xcc13bd544986d14e},
		{"chord-lossy", "max", 17, 0xbb022abee5871ae7},
		{"chord-lossy", "min", 17, 0x2267d7cf640c00a9},
		{"chord-lossy", "sum", 17, 0x4098b1119c12ff1e},
		{"chord-lossy", "count", 17, 0xa7684f85deb24e63},
		{"chord-lossy", "average", 17, 0x5968b16f86ffc283},
		{"chord-lossy", "rank", 17, 0xb2dba04838f34c44},
		{"smallworld", "max", 91, 0x74f2cd30297d5ea3},
		{"smallworld", "min", 91, 0xc9abcfaf8606adcb},
		{"smallworld", "sum", 91, 0x2cd140a66c3b81bc},
		{"smallworld", "count", 91, 0xc1238e05c1f204e3},
		{"smallworld", "average", 91, 0x3a2f8ec96f1482a0},
		{"smallworld", "rank", 91, 0x3cf6b50929777288},
		{"torus", "max", 121, 0xe1c0aae1f2549d8c},
		{"torus", "min", 121, 0x4c798313a01f9f9e},
		{"torus", "sum", 121, 0xe588578404f24b87},
		{"torus", "count", 121, 0xac62497c1dda89f7},
		{"torus", "average", 121, 0x8986040aa908046a},
		{"torus", "rank", 121, 0xe5fbec93ae64989a},
		// Moments under a mid-run crash (re-elected root, live-node
		// consensus) and over the routed transport.
		{"complete-crash", "moments", 44, 0x5b1e6ec616eaf262},
		{"chord", "moments", 24, 0x7a7c95171c0c5a20},
		{"chord-lossy", "moments", 17, 0x260fb6c6daa8bb6b},
		{"smallworld", "moments", 91, 0xbe8ea0df566f0ef1},
		{"torus", "moments", 121, 0xf9aa07787537599},
		// Lossy landmark routing under a loss burst, and under a flaky
		// region overlapping a partition.
		{"smallworld-lossy-burst", "max", 93, 0xd96f991302f360cb},
		{"smallworld-lossy-burst", "min", 93, 0x75c1fd23f706ecfb},
		{"smallworld-lossy-burst", "sum", 93, 0x6f5de83af3ffe895},
		{"smallworld-lossy-burst", "count", 93, 0xa98b0d02d9c0861c},
		{"smallworld-lossy-burst", "average", 93, 0x7266a854e2d626a2},
		{"smallworld-lossy-burst", "rank", 93, 0x3cc54fe6d3a7257d},
		{"smallworld-lossy-burst", "moments", 93, 0xed7f02947582e061},
		{"torus-flaky-part", "max", 101, 0xf22d6c07757f56a4},
		{"torus-flaky-part", "min", 101, 0x8f1f73e89967857f},
		{"torus-flaky-part", "sum", 101, 0x15ac51f417f0b670},
		{"torus-flaky-part", "count", 101, 0xa3b652f098c0c1a3},
		{"torus-flaky-part", "average", 101, 0xc45581b2b4ddb8e0},
		{"torus-flaky-part", "rank", 101, 0xeeb5a36704c9f1d7},
		{"torus-flaky-part", "moments", 101, 0xfb0baf099fd9ff52},
	}
	sessions := make(map[string]*Network)
	for _, r := range rows {
		cfg := configs[r.config]
		cfg.SampleNodes = AllNodes
		nw, ok := sessions[r.config]
		if !ok {
			if nw, err = New(cfg); err != nil {
				t.Fatalf("%s: %v", r.config, err)
			}
			sessions[r.config] = nw
		}
		a, err := nw.Run(queries[r.query](agg.GenUniform(cfg.N, 0, 1000, cfg.Seed+1)))
		if err != nil {
			t.Fatalf("%s/%s: %v", r.config, r.query, err)
		}
		if d := answerDigest(a); a.Trees != r.trees || d != r.digest {
			t.Errorf("%s/%s: got trees=%d digest=%#x, want trees=%d digest=%#x",
				r.config, r.query, a.Trees, d, r.trees, r.digest)
		}
	}
}
