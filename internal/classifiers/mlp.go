package classifiers

import (
	"math"

	"mlaasbench/internal/linalg"
	"mlaasbench/internal/rng"
)

func init() {
	register(Info{
		Name:   "mlp",
		Label:  "MLP",
		Linear: false,
		Params: []ParamSpec{
			{Name: "activation", Kind: Categorical, Options: []any{"relu", "tanh", "logistic"}},
			{Name: "solver", Kind: Categorical, Options: []any{"adam", "sgd"}},
			{Name: "alpha", Kind: Numeric, Default: 1e-4, Min: 1e-8, Max: 10},
			{Name: "hidden", Kind: Numeric, Default: 16, Min: 2, Max: 256, IsInt: true},
			{Name: "max_iter", Kind: Numeric, Default: 60, Min: 2, Max: 200, IsInt: true},
		},
	}, func(p params) Classifier { return &MLP{params: p} })
}

// MLP is a one-hidden-layer multi-layer perceptron trained by backprop on
// the logistic loss, with the scikit-learn surface from Table 1:
// activation (relu/tanh/logistic), solver (sgd/adam) and L2 penalty alpha.
type MLP struct {
	params
	// w1[h][j]: input j → hidden h, b1[h]; w2[h]: hidden h → output, b2.
	w1 [][]float64
	b1 []float64
	w2 []float64
	b2 float64
	// w1flat is w1's contiguous backing array, kept so Predict can wrap the
	// weights as a row-major matrix for the batch GEMM without copying.
	w1flat []float64
}

// Hidden-activation kinds, resolved once per fit/predict instead of
// string-switching per (sample, unit).
const (
	actReLU = iota
	actTanh
	actLogistic
)

func actKindOf(activation string) int {
	switch activation {
	case "tanh":
		return actTanh
	case "logistic":
		return actLogistic
	default:
		return actReLU
	}
}

// Name implements Classifier.
func (*MLP) Name() string { return "mlp" }

// Fit implements Classifier.
func (m *MLP) Fit(x [][]float64, y []int, r *rng.RNG) error {
	n, d, err := validateFit(x, y)
	if err != nil {
		return err
	}
	hidden := m.params.integer("hidden")
	if hidden < 2 {
		hidden = 2
	}
	alpha := m.params.float("alpha")
	epochs := m.params.integer("max_iter")
	activation := m.params.option("activation")
	adam := m.params.option("solver") == "adam"

	// He/Xavier-style init. The weight rows share one contiguous backing
	// array — the training loop streams over all of them every sample, and
	// per-row allocations cost a pointer chase per hidden unit.
	scale := math.Sqrt(2 / float64(d))
	w1backing := make([]float64, hidden*d)
	m.w1 = make([][]float64, hidden)
	m.b1 = make([]float64, hidden)
	m.w2 = make([]float64, hidden)
	for h := range m.w1 {
		row := w1backing[h*d : (h+1)*d : (h+1)*d]
		for j := range row {
			row[j] = r.NormFloat64() * scale
		}
		m.w1[h] = row
		m.w2[h] = r.NormFloat64() * math.Sqrt(2/float64(hidden))
	}
	m.w1flat = w1backing // rows alias it, so trained values stay current
	m.b2 = 0

	// Adam state.
	type adamState struct{ m, v float64 }
	var (
		aw1 [][]adamState
		ab1 []adamState
		aw2 []adamState
		ab2 adamState
	)
	if adam {
		aw1backing := make([]adamState, hidden*d)
		aw1 = make([][]adamState, hidden)
		for h := range aw1 {
			aw1[h] = aw1backing[h*d : (h+1)*d : (h+1)*d]
		}
		ab1 = make([]adamState, hidden)
		aw2 = make([]adamState, hidden)
	}
	const beta1, beta2, eps = 0.9, 0.999, 1e-8
	// Incrementally maintained powers of beta for Adam's bias correction —
	// recomputing math.Pow per weight dominates training cost otherwise.
	beta1Pow, beta2Pow := 1.0, 1.0
	corr1, corr2 := 1.0, 1.0

	// The activation switch and the per-weight update are inlined into the
	// training loop rather than closures: the update runs hidden×d times
	// per sample and the call overhead is the single largest cost of the
	// whole fit. The arithmetic is kept expression-for-expression identical
	// to the closure form, so trained weights are bit-identical.
	actKind := actKindOf(activation)
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	z1 := make([]float64, hidden)
	a1 := make([]float64, hidden)
	nf := float64(n)
	for epoch := 0; epoch < epochs; epoch++ {
		r.Shuffle(n, func(i, j int) { order[i], order[j] = order[j], order[i] })
		lr := 0.01
		if !adam {
			lr = 0.1 / (1 + 0.05*float64(epoch))
		}
		for _, i := range order {
			beta1Pow *= beta1
			beta2Pow *= beta2
			corr1 = 1 / (1 - beta1Pow)
			corr2 = 1 / (1 - beta2Pow)
			xi := x[i]
			// Forward.
			for h := 0; h < hidden; h++ {
				z := linalg.Dot(m.w1[h], xi) + m.b1[h]
				z1[h] = z
				switch actKind {
				case actTanh:
					a1[h] = math.Tanh(z)
				case actLogistic:
					a1[h] = linalg.Sigmoid(z)
				default:
					if z > 0 {
						a1[h] = z
					} else {
						a1[h] = 0
					}
				}
			}
			z2 := linalg.Dot(m.w2, a1) + m.b2
			p := linalg.Sigmoid(z2)
			// Backward: dLoss/dz2 = p - y.
			g2 := p - float64(y[i])
			for h := 0; h < hidden; h++ {
				gw2 := g2*a1[h] + alpha*m.w2[h]/nf
				var grad float64
				switch actKind {
				case actTanh:
					grad = 1 - a1[h]*a1[h]
				case actLogistic:
					grad = a1[h] * (1 - a1[h])
				default:
					if z1[h] > 0 {
						grad = 1
					}
				}
				gh := g2 * m.w2[h] * grad
				// Reslicing to len(xi) (== d, by validateFit) lets the
				// compiler drop the bounds checks in the weight loops.
				row := m.w1[h][:len(xi)]
				if adam {
					st2 := &aw2[h]
					st2.m = beta1*st2.m + (1-beta1)*gw2
					st2.v = beta2*st2.v + (1-beta2)*gw2*gw2
					m.w2[h] -= lr * (st2.m * corr1) / (math.Sqrt(st2.v*corr2) + eps)
					ast := aw1[h][:len(xi)]
					for j, xj := range xi {
						gw1 := gh*xj + alpha*row[j]/nf
						st := &ast[j]
						st.m = beta1*st.m + (1-beta1)*gw1
						st.v = beta2*st.v + (1-beta2)*gw1*gw1
						mhat := st.m * corr1
						vhat := st.v * corr2
						row[j] -= lr * mhat / (math.Sqrt(vhat) + eps)
					}
					stb := &ab1[h]
					stb.m = beta1*stb.m + (1-beta1)*gh
					stb.v = beta2*stb.v + (1-beta2)*gh*gh
					m.b1[h] -= lr * (stb.m * corr1) / (math.Sqrt(stb.v*corr2) + eps)
				} else {
					m.w2[h] -= lr * gw2
					for j, xj := range xi {
						gw1 := gh*xj + alpha*row[j]/nf
						row[j] -= lr * gw1
					}
					m.b1[h] -= lr * gh
				}
			}
			if adam {
				ab2.m = beta1*ab2.m + (1-beta1)*g2
				ab2.v = beta2*ab2.v + (1-beta2)*g2*g2
				m.b2 -= lr * (ab2.m * corr1) / (math.Sqrt(ab2.v*corr2) + eps)
			} else {
				m.b2 -= lr * g2
			}
		}
	}
	return nil
}

// mlpRowBlock is how many request rows stream through the batch forward
// pass at a time: one X tile plus one pre-activation tile stay resident in
// L2 and are reused for every block, so a request of any size works in one
// small fixed buffer (pooled across calls) instead of a full-batch copy.
const mlpRowBlock = 128

// Predict implements Classifier. The forward pass is batched: request rows
// stream in blocks through one contiguous row-major tile, the hidden layer
// is an X·W₁ᵀ GEMM per tile (the weights wrap their existing backing array,
// no copy), followed by an element-wise bias+activation pass with the
// activation kind resolved once, and a fused DotFrom per row for the output
// unit. Every accumulation keeps the per-sample scalar order — ascending
// feature index for the dot, bias seeded first for the output layer — so
// predictions are bit-identical to the historical row-at-a-time loop.
func (m *MLP) Predict(x [][]float64) []int {
	out := make([]int, len(x))
	hidden := len(m.w1)
	if len(x) == 0 {
		return out
	}
	if hidden == 0 {
		// Unfitted: the scalar loop reduced to sign(b2) for every row.
		if m.b2 > 0 {
			for i := range out {
				out[i] = 1
			}
		}
		return out
	}
	actKind := actKindOf(m.params.option("activation"))
	wm := m.weightMatrix()
	d := wm.Cols
	blk := min(mlpRowBlock, len(x))
	sp := getScratch(blk * (d + hidden))
	defer putScratch(sp)
	xt := linalg.Matrix{Cols: d}
	zt := linalg.Matrix{Cols: hidden}
	for lo := 0; lo < len(x); lo += blk {
		hi := min(lo+blk, len(x))
		rows := hi - lo
		xt.Rows, xt.Data = rows, (*sp)[:rows*d]
		zt.Rows, zt.Data = rows, (*sp)[blk*d:blk*d+rows*hidden]
		for i := lo; i < hi; i++ {
			copy(xt.Data[(i-lo)*d:(i-lo+1)*d], x[i][:d])
		}
		linalg.MulTransBInto(&zt, &xt, wm)
		for r := 0; r < rows; r++ {
			zi := zt.Row(r)
			b1 := m.b1[:len(zi)]
			for h, zh := range zi {
				zv := zh + b1[h]
				switch actKind {
				case actTanh:
					zi[h] = math.Tanh(zv)
				case actLogistic:
					zi[h] = linalg.Sigmoid(zv)
				default:
					if zv > 0 {
						zi[h] = zv
					} else {
						zi[h] = 0
					}
				}
			}
			if linalg.DotFrom(m.b2, m.w2, zi) > 0 {
				out[lo+r] = 1
			}
		}
	}
	return out
}

// weightMatrix wraps w1 as a row-major matrix. The flat backing from Fit is
// aliased (zero-copy); a model assembled row-by-row (e.g. in tests) falls
// back to a copy.
func (m *MLP) weightMatrix() *linalg.Matrix {
	hidden := len(m.w1)
	d := len(m.w1[0])
	if len(m.w1flat) == hidden*d {
		return &linalg.Matrix{Rows: hidden, Cols: d, Data: m.w1flat}
	}
	return linalg.FromRows(m.w1)
}
