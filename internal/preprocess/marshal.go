package preprocess

import (
	"fmt"

	"mlaasbench/internal/codec"
)

// Binary tags for the fitted-scaler codec (MLMF artifacts). Append-only:
// new scalers get new tags, existing tags never change meaning.
const (
	scalerIdentity = iota + 1
	scalerStandard
	scalerMinMax
	scalerMaxAbs
	scalerRowNorm
	scalerQuantileBinning
	scalerOneHotBinning
)

// Decode limits for fitted scaler state. Features are bounded well above
// anything the corpus produces; bins match QuantileBinning's practical
// range.
const (
	maxScalerFeatures = 1 << 20
	maxScalerBins     = 1 << 16
)

// AppendScaler serializes a fitted scaler's learned statistics. The bit
// patterns of every float are preserved exactly, so a decoded scaler
// transforms byte-identically to the resident one.
func AppendScaler(b []byte, s Scaler) ([]byte, error) {
	switch t := s.(type) {
	case *Identity:
		return codec.AppendU8(b, scalerIdentity), nil
	case *Standard:
		b = codec.AppendU8(b, scalerStandard)
		b = codec.AppendF64s(b, t.mean)
		return codec.AppendF64s(b, t.std), nil
	case *MinMax:
		b = codec.AppendU8(b, scalerMinMax)
		b = codec.AppendF64s(b, t.min)
		return codec.AppendF64s(b, t.span), nil
	case *MaxAbs:
		b = codec.AppendU8(b, scalerMaxAbs)
		return codec.AppendF64s(b, t.scale), nil
	case *RowNorm:
		b = codec.AppendU8(b, scalerRowNorm)
		return codec.AppendU8(b, uint8(t.P)), nil
	case *QuantileBinning:
		b = codec.AppendU8(b, scalerQuantileBinning)
		return appendEdges(b, t.Bins, t.edges), nil
	case *OneHotBinning:
		b = codec.AppendU8(b, scalerOneHotBinning)
		return appendEdges(b, t.Bins, t.edges), nil
	default:
		return nil, fmt.Errorf("preprocess: cannot serialize scaler %T", s)
	}
}

// DecodeScaler reconstructs a fitted scaler written by AppendScaler.
func DecodeScaler(r *codec.Reader) (Scaler, error) {
	tag := r.U8()
	var s Scaler
	switch tag {
	case scalerIdentity:
		s = &Identity{}
	case scalerStandard:
		s = &Standard{mean: r.F64s(maxScalerFeatures), std: r.F64s(maxScalerFeatures)}
	case scalerMinMax:
		s = &MinMax{min: r.F64s(maxScalerFeatures), span: r.F64s(maxScalerFeatures)}
	case scalerMaxAbs:
		s = &MaxAbs{scale: r.F64s(maxScalerFeatures)}
	case scalerRowNorm:
		s = &RowNorm{P: int(r.U8())}
	case scalerQuantileBinning:
		t := &QuantileBinning{}
		t.Bins, t.edges = readEdges(r)
		s = t
	case scalerOneHotBinning:
		t := &OneHotBinning{}
		t.Bins, t.edges = readEdges(r)
		s = t
	default:
		if err := r.Err(); err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("%w: unknown scaler tag %d", codec.ErrCorrupt, tag)
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	return s, nil
}

func appendEdges(b []byte, bins int, edges [][]float64) []byte {
	b = codec.AppendU32(b, uint32(bins))
	b = codec.AppendU32(b, uint32(len(edges)))
	for _, col := range edges {
		b = codec.AppendF64s(b, col)
	}
	return b
}

func readEdges(r *codec.Reader) (bins int, edges [][]float64) {
	bins = int(r.U32())
	if r.Err() == nil && bins > maxScalerBins {
		r.Fail("bins %d over limit %d", bins, maxScalerBins)
		return 0, nil
	}
	// Each column carries at least its own 4-byte count.
	n := r.Count(maxScalerFeatures, 4)
	if r.Err() != nil || n == 0 {
		return bins, nil
	}
	edges = make([][]float64, n)
	for j := range edges {
		edges[j] = r.F64s(maxScalerBins)
	}
	return bins, edges
}
