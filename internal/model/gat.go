package model

import (
	"fmt"
	"math"
	"math/rand"

	"gnnavigator/internal/nn"
	"gnnavigator/internal/sample"
	"gnnavigator/internal/tensor"
)

// gatLayer implements multi-head additive attention (Veličković et al.):
//
//	z_j     = h_j · W            (per head)
//	e_ij    = LeakyReLU(aSrc·z_j + aDst·z_i)   over j ∈ N(i) ∪ {i}
//	α_i·    = softmax(e_i·)
//	y_i     = Σ_j α_ij z_j
//
// Heads are concatenated; the per-head output dim is out/heads.
//
// Forward is sharded over destination-row ranges (each dst owns a
// contiguous edge range, so scores, softmax and the weighted sum write
// disjoint slices). Backward's edge scatter accumulates into shared
// source rows, so it stays serial; its matmuls — which dominate — run on
// the sharded kernels.
type gatLayer struct {
	heads   int
	in, out int // out is the concatenated output dim
	perHead int
	slope   float64

	w    []*nn.Param // [heads] in×perHead
	aSrc []*nn.Param // [heads] 1×perHead
	aDst []*nn.Param // [heads] 1×perHead
	bias *nn.Param   // 1×out

	ws *tensor.Workspace

	// forward caches. alpha/pre live in the workspace arena (one Get per
	// head per Forward), not on the layer: they are per-iteration
	// intermediates, valid from Forward through Backward until the
	// trainer's ReleaseAll, and arena-backed buffers are shared across
	// layers and batch sizes instead of pinned per layer.
	blk   *sample.Block
	h     *tensor.Dense
	z     []*tensor.Dense // per head, src×perHead
	alpha [][]float64     // per head, per edge (flattened like edge list incl. self)
	pre   [][]float64     // pre-LeakyReLU scores per head/edge
	// edge list with self loops: for dst i, edges cover [dstOff[i], dstOff[i+1])
	edgeSrc []int32 // src position per edge
	edgeDst []int32 // dst index per edge
	dstOff  []int32 // per-dst edge range start; len = DstCount+1

	// reusable scratch (cap-grown, never shrunk)
	sSrc, sDst   []float64
	dAlpha, dPre []float64
	colSum       []float64
}

// newGATLayer builds one layer; Config.validate has checked that heads
// divides out.
func newGATLayer(rng *rand.Rand, name string, in, out, heads int) *gatLayer {
	l := &gatLayer{heads: heads, in: in, out: out, perHead: out / heads, slope: 0.2}
	for h := 0; h < heads; h++ {
		w := nn.NewParam(fmt.Sprintf("%s.W%d", name, h), in, l.perHead)
		w.Value.GlorotInit(rng, in, l.perHead)
		as := nn.NewParam(fmt.Sprintf("%s.aSrc%d", name, h), 1, l.perHead)
		as.Value.GlorotInit(rng, l.perHead, 1)
		ad := nn.NewParam(fmt.Sprintf("%s.aDst%d", name, h), 1, l.perHead)
		ad.Value.GlorotInit(rng, l.perHead, 1)
		l.w = append(l.w, w)
		l.aSrc = append(l.aSrc, as)
		l.aDst = append(l.aDst, ad)
	}
	l.bias = nn.NewParam(name+".b", 1, out)
	l.z = make([]*tensor.Dense, heads)
	l.alpha = make([][]float64, heads)
	l.pre = make([][]float64, heads)
	return l
}

func (l *gatLayer) setWorkspace(ws *tensor.Workspace) { l.ws = ws }

// buildEdges materializes the attention edge list: sampled neighbors plus a
// self edge per destination. The edge count is known exactly up front
// (one self edge per dst plus every sampled index), so the buffers are
// sized once and filled by position — no append growth in the hot path.
func (l *gatLayer) buildEdges(blk *sample.Block) {
	n := blk.DstCount + len(blk.Indices)
	l.edgeSrc = tensor.Grow(l.edgeSrc, n)
	l.edgeDst = tensor.Grow(l.edgeDst, n)
	l.dstOff = tensor.Grow(l.dstOff, blk.DstCount+1)
	e := 0
	for i := 0; i < blk.DstCount; i++ {
		l.dstOff[i] = int32(e)
		l.edgeSrc[e] = int32(i) // self
		l.edgeDst[e] = int32(i)
		e++
		for _, ix := range blk.Indices[blk.Offsets[i]:blk.Offsets[i+1]] {
			l.edgeSrc[e] = ix
			l.edgeDst[e] = int32(i)
			e++
		}
	}
	l.dstOff[blk.DstCount] = int32(e)
}

func (l *gatLayer) Forward(blk *sample.Block, h *tensor.Dense, epi *nn.Epilogue, train bool) *tensor.Dense {
	l.blk = blk
	l.h = h
	l.buildEdges(blk)
	nEdges := len(l.edgeSrc)
	out := l.ws.Get(blk.DstCount, l.out)

	for hd := 0; hd < l.heads; hd++ {
		z := l.ws.Get(h.Rows, l.perHead)
		tensor.MatMulInto(z, h, l.w[hd].Value)
		l.z[hd] = z
		as, ad := l.aSrc[hd].Value.Data, l.aDst[hd].Value.Data
		// Per-vertex score halves.
		l.sSrc = tensor.Grow(l.sSrc, z.Rows)
		sSrc := l.sSrc
		tensor.ParallelRows(z.Rows, func(lo, hi int) {
			for r := lo; r < hi; r++ {
				row := z.Row(r)
				var s float64
				for j, a := range as {
					s += a * row[j]
				}
				sSrc[r] = s
			}
		})
		l.sDst = tensor.Grow(l.sDst, blk.DstCount)
		sDst := l.sDst
		tensor.ParallelRows(blk.DstCount, func(lo, hi int) {
			for r := lo; r < hi; r++ {
				row := z.Row(r)
				var s float64
				for j, a := range ad {
					s += a * row[j]
				}
				sDst[r] = s
			}
		})
		l.pre[hd] = l.ws.Get(1, nEdges).Data
		l.alpha[hd] = l.ws.Get(1, nEdges).Data
		pre, alpha := l.pre[hd], l.alpha[hd]
		// Scores, per-dst softmax and the weighted sum shard over dst
		// ranges: dst i owns edges [dstOff[i], dstOff[i+1]) and output
		// row i, so shards never share writes.
		base := hd * l.perHead
		tensor.ParallelRows(blk.DstCount, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				eLo, eHi := int(l.dstOff[i]), int(l.dstOff[i+1])
				for e := eLo; e < eHi; e++ {
					v := sSrc[l.edgeSrc[e]] + sDst[l.edgeDst[e]]
					pre[e] = v
					if v < 0 {
						v *= l.slope
					}
					alpha[e] = v
				}
				max := math.Inf(-1)
				for e := eLo; e < eHi; e++ {
					if alpha[e] > max {
						max = alpha[e]
					}
				}
				var sum float64
				for e := eLo; e < eHi; e++ {
					alpha[e] = math.Exp(alpha[e] - max)
					sum += alpha[e]
				}
				for e := eLo; e < eHi; e++ {
					alpha[e] /= sum
				}
				orow := out.Row(i)
				if hd == 0 {
					for j := range orow {
						orow[j] = 0
					}
				}
				for e := eLo; e < eHi; e++ {
					zrow := z.Row(int(l.edgeSrc[e]))
					a := alpha[e]
					for j := 0; j < l.perHead; j++ {
						orow[base+j] += a * zrow[j]
					}
				}
			}
		})
	}
	return epi.Forward(out, l.bias.Value.Data, nil, nil, train)
}

func (l *gatLayer) Backward(dy *tensor.Dense, needInput bool) *tensor.Dense {
	blk := l.blk
	nEdges := len(l.edgeSrc)
	l.colSum = tensor.Grow(l.colSum, dy.Cols)
	dy.ColSumsInto(l.colSum)
	for j, s := range l.colSum {
		l.bias.Grad.Data[j] += s
	}
	var dh, dhHead *tensor.Dense
	if needInput {
		dh = l.ws.GetZeroed(l.h.Rows, l.in)
		dhHead = l.ws.Get(l.h.Rows, l.in)
	}
	dwScratch := l.ws.Get(l.in, l.perHead)
	for hd := 0; hd < l.heads; hd++ {
		z := l.z[hd]
		alpha := l.alpha[hd]
		pre := l.pre[hd]
		base := hd * l.perHead
		dz := l.ws.GetZeroed(z.Rows, l.perHead)
		l.dAlpha = tensor.Grow(l.dAlpha, nEdges)
		dAlpha := l.dAlpha
		// dz from the weighted sum; dAlpha_e = dy_i · z_src. Serial: many
		// edges share a src row of dz.
		for e := 0; e < nEdges; e++ {
			src, dst := int(l.edgeSrc[e]), int(l.edgeDst[e])
			zrow := z.Row(src)
			dyrow := dy.Row(dst)
			dzrow := dz.Row(src)
			a := alpha[e]
			var da float64
			for j := 0; j < l.perHead; j++ {
				g := dyrow[base+j]
				dzrow[j] += a * g
				da += g * zrow[j]
			}
			dAlpha[e] = da
		}
		// Softmax backward per dst: de = α (dα - Σ α dα). Dst ranges are
		// disjoint, so this shards.
		l.dPre = tensor.Grow(l.dPre, nEdges)
		dPre := l.dPre
		tensor.ParallelRows(blk.DstCount, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				eLo, eHi := int(l.dstOff[i]), int(l.dstOff[i+1])
				var dot float64
				for e := eLo; e < eHi; e++ {
					dot += alpha[e] * dAlpha[e]
				}
				for e := eLo; e < eHi; e++ {
					de := alpha[e] * (dAlpha[e] - dot)
					if pre[e] < 0 {
						de *= l.slope
					}
					dPre[e] = de
				}
			}
		})
		// dPre flows to aSrc·z_src and aDst·z_dst. Serial: src rows of dz
		// are shared across edges.
		as, ad := l.aSrc[hd].Value.Data, l.aDst[hd].Value.Data
		dAs, dAd := l.aSrc[hd].Grad.Data, l.aDst[hd].Grad.Data
		for e := 0; e < nEdges; e++ {
			src, dst := int(l.edgeSrc[e]), int(l.edgeDst[e])
			g := dPre[e]
			zs := z.Row(src)
			zd := z.Row(dst)
			dzs := dz.Row(src)
			dzd := dz.Row(dst)
			for j := 0; j < l.perHead; j++ {
				dAs[j] += g * zs[j]
				dAd[j] += g * zd[j]
				dzs[j] += g * as[j]
				dzd[j] += g * ad[j]
			}
		}
		// Through z = h·W.
		tensor.MatMulT1Into(dwScratch, l.h, dz)
		l.w[hd].Grad.AddInPlace(dwScratch)
		if needInput {
			tensor.MatMulT2Into(dhHead, dz, l.w[hd].Value)
			dh.AddInPlace(dhHead)
		}
		l.ws.Put(dz)
	}
	l.ws.Put(dwScratch)
	l.ws.Put(dhHead)
	return dh
}

func (l *gatLayer) Params() []*nn.Param {
	out := make([]*nn.Param, 0, 3*l.heads+1)
	for hd := 0; hd < l.heads; hd++ {
		out = append(out, l.w[hd], l.aSrc[hd], l.aDst[hd])
	}
	return append(out, l.bias)
}
