package rng

import (
	"math"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same seed diverged at step %d", i)
		}
	}
}

func TestDifferentSeedsDiverge(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("different seeds produced %d identical outputs in 100 draws", same)
	}
}

func TestSplitAddressable(t *testing.T) {
	r := New(7)
	a := r.Split("experiment-a")
	a2 := r.Split("experiment-a")
	b := r.Split("experiment-b")
	if a.Uint64() != a2.Uint64() {
		t.Fatal("same-name splits differ")
	}
	if a.Uint64() == b.Uint64() {
		t.Fatal("different-name splits collide")
	}
}

func TestSplitDoesNotConsumeParent(t *testing.T) {
	r := New(9)
	r2 := New(9)
	_ = r.Split("x")
	if r.Uint64() != r2.Uint64() {
		t.Fatal("Split consumed parent state")
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(3)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := New(4)
	sum := 0.0
	const n = 100000
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("uniform mean %v too far from 0.5", mean)
	}
}

func TestIntnBounds(t *testing.T) {
	r := New(5)
	for _, n := range []int{1, 2, 3, 7, 100, 1 << 20} {
		for i := 0; i < 1000; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(1).Intn(0)
}

func TestIntnUniform(t *testing.T) {
	r := New(6)
	const n, draws = 10, 100000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[r.Intn(n)]++
	}
	expect := float64(draws) / n
	for i, c := range counts {
		if math.Abs(float64(c)-expect) > 5*math.Sqrt(expect) {
			t.Fatalf("bucket %d count %d too far from %v", i, c, expect)
		}
	}
}

func TestNormFloat64Moments(t *testing.T) {
	r := New(8)
	const n = 200000
	sum, sumSq := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := r.NormFloat64()
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Fatalf("normal mean %v too far from 0", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Fatalf("normal variance %v too far from 1", variance)
	}
}

func TestNormalScaling(t *testing.T) {
	r := New(10)
	const n = 100000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += r.Normal(5, 2)
	}
	if mean := sum / n; math.Abs(mean-5) > 0.05 {
		t.Fatalf("Normal(5,2) mean %v", mean)
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := New(11)
	for _, n := range []int{0, 1, 2, 10, 1000} {
		p := r.Perm(n)
		if len(p) != n {
			t.Fatalf("Perm(%d) has length %d", n, len(p))
		}
		sorted := append([]int(nil), p...)
		sort.Ints(sorted)
		for i, v := range sorted {
			if v != i {
				t.Fatalf("Perm(%d) missing %d", n, i)
			}
		}
	}
}

func TestSampleDistinct(t *testing.T) {
	r := New(12)
	s := r.Sample(20, 10)
	if len(s) != 10 {
		t.Fatalf("Sample returned %d items", len(s))
	}
	seen := map[int]bool{}
	for _, v := range s {
		if v < 0 || v >= 20 {
			t.Fatalf("sample value %d out of range", v)
		}
		if seen[v] {
			t.Fatalf("duplicate sample value %d", v)
		}
		seen[v] = true
	}
}

func TestSamplePanicsWhenKTooLarge(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(1).Sample(3, 4)
}

// fisherYates is the shuffle Perm and Sample have always drawn: every
// fitted model's bytes depend on these draws staying the same.
func fisherYates(r *RNG, n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Perm, Sample and SampleInto must make fisherYates's draws: the first k of
// one shuffle of all n indices. Whatever buffer SampleInto is handed —
// none, too short, exact, or longer — it returns the same values and
// leaves the generator in the same state.
func TestSampleIntoMatchesSample(t *testing.T) {
	for n := 1; n <= 40; n++ {
		for k := 0; k <= n; k++ {
			seed := uint64(1000*n + k)
			want := New(seed)
			perm := fisherYates(want, n)[:k]
			next := want.Uint64()
			for name, draw := range map[string]func(r *RNG) []int{
				"Perm":   func(r *RNG) []int { return r.Perm(n)[:k] },
				"Sample": func(r *RNG) []int { return r.Sample(n, k) },
			} {
				r := New(seed)
				if got := draw(r); !slices.Equal(got, perm) {
					t.Fatalf("%s(%d, %d) = %v, want %v", name, n, k, got, perm)
				}
				if s := r.Uint64(); s != next {
					t.Fatalf("%s(%d, %d) left the generator at %x, want %x", name, n, k, s, next)
				}
			}
			for _, buf := range [][]int{nil, make([]int, n/2), make([]int, n), make([]int, 2*n+3)} {
				r := New(seed)
				got := r.SampleInto(buf, n, k)
				if !slices.Equal(got, perm) {
					t.Fatalf("SampleInto(cap %d, %d, %d) = %v, want %v", cap(buf), n, k, got, perm)
				}
				if s := r.Uint64(); s != next {
					t.Fatalf("SampleInto(cap %d, %d, %d) left the generator at %x, want %x", cap(buf), n, k, s, next)
				}
				if cap(buf) >= n && k > 0 && &got[0] != &buf[0] {
					t.Fatalf("SampleInto(cap %d, %d, %d) did not use the buffer", cap(buf), n, k)
				}
			}
		}
	}
}

func TestSampleIntoPanicsWhenKTooLarge(t *testing.T) {
	for _, buf := range [][]int{nil, make([]int, 8)} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("SampleInto(cap %d, 3, 4): expected panic", cap(buf))
				}
			}()
			New(1).SampleInto(buf, 3, 4)
		}()
	}
}

func TestChoiceWeighted(t *testing.T) {
	r := New(13)
	const draws = 100000
	counts := [3]int{}
	for i := 0; i < draws; i++ {
		counts[r.Choice([]float64{1, 2, 7})]++
	}
	if f := float64(counts[2]) / draws; math.Abs(f-0.7) > 0.02 {
		t.Fatalf("weight-7 bucket frequency %v, want ~0.7", f)
	}
	if f := float64(counts[0]) / draws; math.Abs(f-0.1) > 0.02 {
		t.Fatalf("weight-1 bucket frequency %v, want ~0.1", f)
	}
}

func TestChoicePanicsOnZeroTotal(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(1).Choice([]float64{0, 0})
}

func TestExponentialMean(t *testing.T) {
	r := New(14)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += r.Exponential(2)
	}
	if mean := sum / n; math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("Exponential(2) mean %v, want ~0.5", mean)
	}
}

func TestUniformRange(t *testing.T) {
	r := New(15)
	for i := 0; i < 1000; i++ {
		v := r.Uniform(-3, 7)
		if v < -3 || v >= 7 {
			t.Fatalf("Uniform(-3,7) = %v", v)
		}
	}
}

func TestShuffleKeepsElements(t *testing.T) {
	r := New(16)
	xs := []int{1, 2, 3, 4, 5, 6}
	r.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
	sort.Ints(xs)
	for i, v := range xs {
		if v != i+1 {
			t.Fatal("shuffle lost an element")
		}
	}
}

// Property: Intn output is always within bounds, for arbitrary seeds and sizes.
func TestQuickIntnInRange(t *testing.T) {
	f := func(seed uint64, n uint16) bool {
		m := int(n%1000) + 1
		r := New(seed)
		for i := 0; i < 50; i++ {
			v := r.Intn(m)
			if v < 0 || v >= m {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Perm always yields a valid permutation.
func TestQuickPermValid(t *testing.T) {
	f := func(seed uint64, n uint8) bool {
		m := int(n % 64)
		p := New(seed).Perm(m)
		seen := make([]bool, m)
		for _, v := range p {
			if v < 0 || v >= m || seen[v] {
				return false
			}
			seen[v] = true
		}
		return len(p) == m
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: splits with distinct names are independent of split order.
func TestQuickSplitOrderIndependent(t *testing.T) {
	f := func(seed uint64) bool {
		r1 := New(seed)
		r2 := New(seed)
		a1 := r1.Split("a")
		_ = r1.Split("b")
		_ = r2.Split("b")
		a2 := r2.Split("a")
		return a1.Uint64() == a2.Uint64()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Uint64()
	}
}

func BenchmarkNormFloat64(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.NormFloat64()
	}
}
