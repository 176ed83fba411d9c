package classifiers

import (
	"math"
	"slices"
	"sort"
	"testing"

	"mlaasbench/internal/rng"
)

// sortedJungleSplit is the jungle's split search as it was before
// dagMem.split: sort the group's rows by (value, row) and run
// bestSplitSorted's random-threshold scan over them. It is the oracle the
// sort-free split must match.
func sortedJungleSplit(x [][]float64, target []float64, group []int, j, k int, r *rng.RNG) (threshold, score float64, ok bool) {
	type keyed struct {
		v float64
		i int
	}
	buf := make([]keyed, len(group))
	for n, i := range group {
		buf[n] = keyed{v: x[i][j], i: i}
	}
	slices.SortFunc(buf, func(a, b keyed) int {
		switch {
		case a.v < b.v:
			return -1
		case a.v > b.v:
			return 1
		default:
			return a.i - b.i
		}
	})
	ord := make([]int32, len(group))
	for n := range buf {
		ord[n] = int32(buf[n].i)
	}
	var sumAll, sqAll float64
	for _, i := range group {
		t := target[i]
		sumAll += t
		sqAll += t * t
	}
	cfg := treeConfig{criterion: "gini", randomSplits: k}
	return bestSplitSorted(x, target, ord, j, sumAll, sqAll, cfg, r, make([]float64, k))
}

// jungleSplitData is a matrix whose columns are: continuous, a coarse grid
// (ties), constant, finite values mixed with +Inf and -Inf, finite values
// with +Inf, finite values with -Inf, and a signed-zero grid.
func jungleSplitData(r *rng.RNG, n int) ([][]float64, []float64) {
	x := make([][]float64, n)
	target := make([]float64, n)
	inf := func(v, sign float64, p float64) float64 {
		if r.Bernoulli(p) {
			return math.Inf(int(sign))
		}
		return v
	}
	for i := range x {
		v := r.NormFloat64()
		grid := float64(r.Intn(4)) / 2
		zero := 0.0
		if r.Bernoulli(0.5) {
			zero = math.Copysign(0, -1)
		}
		if r.Bernoulli(0.3) {
			zero = 1
		}
		x[i] = []float64{
			v,
			grid,
			3,
			inf(inf(grid, 1, 0.15), -1, 0.15),
			inf(v, 1, 0.2),
			inf(grid, -1, 0.2),
			zero,
		}
		if v+r.NormFloat64() > 0 {
			target[i] = 1
		}
	}
	return x, target
}

// The sort-free jungle split must be the sorted scan's split bit for bit —
// threshold, score and ok — and leave the generator where the scan leaves
// it, over groups that repeat rows, on tied, constant, infinite and
// signed-zero columns, at 1, 8 and 128 thresholds.
func TestJungleSplitMatchesSortedScan(t *testing.T) {
	found, none := 0, 0
	mem := &dagMem{}
	for seed := uint64(1); seed <= 60; seed++ {
		r := rng.New(seed)
		x, target := jungleSplitData(r, 5+r.Intn(40))
		d := len(x[0])
		for _, k := range []int{1, 8, 128} {
			mem.thr = sized(mem.thr, k)
			mem.below = sized(mem.below, k+1)
			mem.posBelow = sized(mem.posBelow, k+1)
			for draw := 0; draw < 4; draw++ {
				group := make([]int, 1+r.Intn(3*len(x)))
				for g := range group {
					group[g] = r.Intn(len(x))
				}
				pos := 0
				for _, i := range group {
					pos += int(target[i])
				}
				for f := 0; f < d; f++ {
					s := r.Uint64()
					want, got := rng.New(s), rng.New(s)
					wThr, wScore, wOK := sortedJungleSplit(x, target, group, f, k, want)
					gThr, gScore, gOK := mem.split(x, target, group, f, pos, k, got)
					if math.Float64bits(gThr) != math.Float64bits(wThr) || math.Float64bits(gScore) != math.Float64bits(wScore) || gOK != wOK {
						t.Fatalf("seed %d k=%d feature %d group %v: split (%v, %v, %v), sorted scan (%v, %v, %v)",
							seed, k, f, group, gThr, gScore, gOK, wThr, wScore, wOK)
					}
					if g, w := got.Uint64(), want.Uint64(); g != w {
						t.Fatalf("seed %d k=%d feature %d: generator left at %x, sorted scan at %x", seed, k, f, g, w)
					}
					if gOK {
						found++
					} else {
						none++
					}
				}
			}
		}
	}
	if found == 0 || none == 0 {
		t.Fatalf("cases with a split: %d, without: %d; want both", found, none)
	}
}

// mostSimilarPair sorts its rates with slices.SortFunc where it once called
// sort.Slice with less rates[a].p < rates[b].p. Both run the same pdqsort,
// so rates that tie (every pure group's is 0 or 1) must keep their order:
// the merge chosen, and so the DAG, depends on it. Checked over slices of
// 2 to 80 rates drawn from few values, the size of a level's children.
func TestMostSimilarPairSortsAsSortSlice(t *testing.T) {
	r := rng.New(11)
	values := []float64{0, 1, 0.5, 0.25, 1.0 / 3}
	mem := &dagMem{}
	for trial := 0; trial < 2000; trial++ {
		n := 2 + r.Intn(79)
		groups := make([][]int, n)
		target := make([]float64, 0, n)
		for i := range groups {
			target = append(target, values[r.Intn(len(values))])
			groups[i] = []int{i}
		}
		want := make([]groupRate, n)
		for i := range want {
			want[i] = groupRate{idx: i, p: target[i]}
		}
		sort.Slice(want, func(a, b int) bool { return want[a].p < want[b].p })
		mem.mostSimilarPair(groups, target)
		if !slices.Equal(mem.rates, want) {
			t.Fatalf("trial %d: rates sorted as %v, sort.Slice gives %v", trial, mem.rates, want)
		}
	}
}
