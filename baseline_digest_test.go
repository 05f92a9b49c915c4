package drrgossip

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"drrgossip/internal/agg"
	core "drrgossip/internal/drrgossip"
	"drrgossip/internal/forest"
	"drrgossip/internal/kashyap"
	"drrgossip/internal/pietro"
	"drrgossip/internal/sim"
)

// baselineRun is the part of a forest protocol's outcome a refactor of
// the shared Phases II–III must preserve.
type baselineRun struct {
	value     float64   // the aggregate
	perNode   []float64 // every node's final value
	consensus bool
	stats     sim.Counters // the whole run
	phase1    sim.Counters // forest building alone
	trees     int          // forest trees
}

func (b baselineRun) digest() uint64 {
	h := fnv.New64a()
	var buf [8]byte
	u64 := func(x uint64) {
		binary.LittleEndian.PutUint64(buf[:], x)
		h.Write(buf[:])
	}
	u64(math.Float64bits(b.value))
	u64(uint64(len(b.perNode)))
	for _, v := range b.perNode {
		u64(math.Float64bits(v))
	}
	if b.consensus {
		u64(1)
	} else {
		u64(0)
	}
	for _, c := range []sim.Counters{b.stats, b.phase1} {
		u64(uint64(c.Rounds))
		u64(uint64(c.Messages))
		u64(uint64(c.Drops))
		u64(uint64(c.Calls))
	}
	u64(uint64(b.trees))
	return h.Sum64()
}

// baselineAlgos runs each forest protocol outside the facade: the two
// Table 1 baselines (Phase I clusterhead bootstrap and Kashyap merge
// phases).
var baselineAlgos = map[string]func(eng *sim.Engine, values []float64) (baselineRun, error){
	"pietro-max":  forestAlgo(pietro.Bootstrap, core.Max),
	"pietro-ave":  forestAlgo(pietro.Bootstrap, core.Ave),
	"kashyap-max": forestAlgo(kashyap.BuildForest, core.Max),
	"kashyap-ave": forestAlgo(kashyap.BuildForest, core.Ave),
}

// forestAlgo runs the shared Phases II–III over a baseline's Phase I.
func forestAlgo(build func(*sim.Engine) (*forest.Forest, []int, error), kind core.Kind) func(*sim.Engine, []float64) (baselineRun, error) {
	return func(eng *sim.Engine, values []float64) (baselineRun, error) {
		before := eng.Stats()
		r, err := core.RunForest(eng, build, kind, values)
		if err != nil {
			return baselineRun{}, err
		}
		return baselineRun{r.Value, r.PerNode, r.Consensus, eng.Stats().Sub(before), eng.Billed(core.PhaseDRR), r.Forest.NumTrees()}, nil
	}
}

// TestBaselineDigests pins the Table 1 baselines bit for bit on
// lossless, lossy, crashed and lossy+crashed
// engines: value, every per-node bit, consensus, the bill and its Phase I
// share, and the forest's tree count.
func TestBaselineDigests(t *testing.T) {
	engines := map[string]sim.Options{
		"clean":      {},
		"loss":       {Loss: 0.1},
		"crash":      {CrashFrac: 0.2},
		"loss+crash": {Loss: 0.05, CrashFrac: 0.1},
	}
	type row struct {
		algo, engine string
		n            int
		trees        int
		digest       uint64
	}
	rows := []row{
		{"pietro-max", "clean", 64, 11, 0xbdb4296afbead787},
		{"pietro-max", "clean", 1024, 123, 0x49750b2cb7422870},
		{"pietro-max", "loss", 64, 13, 0x6216f385e2c57316},
		{"pietro-max", "loss", 1024, 138, 0xa871025f0c62019c},
		{"pietro-max", "crash", 64, 10, 0x59205826a0a84669},
		{"pietro-max", "crash", 1024, 111, 0xcd1ec750db4fe086},
		{"pietro-max", "loss+crash", 64, 10, 0x89abec74d19407df},
		{"pietro-max", "loss+crash", 1024, 127, 0x73152a8b852a1b39},
		{"pietro-ave", "clean", 64, 11, 0xaee1c50d14dca420},
		{"pietro-ave", "clean", 1024, 123, 0xddecf28fbd0aad5c},
		{"pietro-ave", "loss", 64, 13, 0xc0ed27132e315e02},
		{"pietro-ave", "loss", 1024, 138, 0xb255f5eef59a2c22},
		{"pietro-ave", "crash", 64, 10, 0x4088a0f75ffb3c32},
		{"pietro-ave", "crash", 1024, 111, 0x12f40aaeb6664922},
		{"pietro-ave", "loss+crash", 64, 10, 0xf382ffade72aaec3},
		{"pietro-ave", "loss+crash", 1024, 127, 0x3b6fe52848d877ff},
		{"kashyap-max", "clean", 64, 9, 0x3aa15aba036c8975},
		{"kashyap-max", "clean", 1024, 94, 0x70f7732919ad7f73},
		{"kashyap-max", "loss", 64, 21, 0x284eee68ee3efdcf},
		{"kashyap-max", "loss", 1024, 175, 0x14b8f35fa898c7d2},
		{"kashyap-max", "crash", 64, 14, 0xc04f68f6e3e8ce63},
		{"kashyap-max", "crash", 1024, 103, 0x9953a47f57c2ac6},
		{"kashyap-max", "loss+crash", 64, 17, 0x65ba802da9330180},
		{"kashyap-max", "loss+crash", 1024, 145, 0x3d83a0d359e5a900},
		{"kashyap-ave", "clean", 64, 9, 0xbec2a60f36346bcc},
		{"kashyap-ave", "clean", 1024, 94, 0x851836e138e9c0e0},
		{"kashyap-ave", "loss", 64, 21, 0x5a55ca57916b40af},
		{"kashyap-ave", "loss", 1024, 175, 0x5a063dbcc1547ba9},
		{"kashyap-ave", "crash", 64, 14, 0xfa5d246c5bb09fea},
		{"kashyap-ave", "crash", 1024, 103, 0xb0910486cc373b8d},
		{"kashyap-ave", "loss+crash", 64, 17, 0x62fe8d9848719f88},
		{"kashyap-ave", "loss+crash", 1024, 145, 0xd1f99118a4ffecfb},
	}
	for _, r := range rows {
		opts := engines[r.engine]
		opts.Seed = uint64(r.n) + 17
		eng := sim.NewEngine(r.n, opts)
		res, err := baselineAlgos[r.algo](eng, agg.GenUniform(r.n, 0, 1000, opts.Seed))
		if err != nil {
			t.Fatalf("%s/%s/%d: %v", r.algo, r.engine, r.n, err)
		}
		if d := res.digest(); res.trees != r.trees || d != r.digest {
			t.Errorf("%s/%s/%d: got trees=%d digest=%#x, want trees=%d digest=%#x",
				r.algo, r.engine, r.n, res.trees, d, r.trees, r.digest)
		}
	}
}
