// Package nn provides the neural-network building blocks for the pure-Go
// GNN trainer: parameterized linear layers, the Epilogue that finishes a
// graph convolution (bias, ReLU or ELU, the next layer's dropout, with an
// exact backward pass), the input dropout, the softmax cross-entropy
// loss, and the Adam optimizer.
//
// The Epilogue works in place: one sharded pass over the layer's output
// replaces a pass and a fresh buffer per step, and saves only what its
// backward reads. Dropout masks are drawn serially, one rng draw per
// element in order, so the mask stream is the same at every worker
// count; applying them is sharded.
//
// Linear and Dropout optionally carry a *tensor.Workspace (the WS field,
// nil by default). With a workspace attached, forward/backward passes
// draw their outputs and scratch from the arena instead of allocating,
// so a steady-state training iteration is allocation-free; the owner of
// the training loop calls ws.ReleaseAll() once per iteration. With WS
// nil they allocate fresh buffers, which keeps standalone use working.
package nn

import (
	"fmt"
	"math"
	"math/rand"

	"gnnavigator/internal/tensor"
)

// Param is a trainable tensor with its gradient accumulator.
type Param struct {
	Name  string
	Value *tensor.Dense
	Grad  *tensor.Dense
}

// NewParam allocates a named parameter of the given shape with a zero
// gradient buffer.
func NewParam(name string, rows, cols int) *Param {
	return &Param{
		Name:  name,
		Value: tensor.New(rows, cols),
		Grad:  tensor.New(rows, cols),
	}
}

// Size returns the number of scalar parameters.
func (p *Param) Size() int { return len(p.Value.Data) }

// ZeroGrad clears the gradient buffer.
func (p *Param) ZeroGrad() { p.Grad.Zero() }

// Linear is a fully connected layer Y = X·W + b.
type Linear struct {
	W, B *Param
	// WS, when non-nil, supplies output and scratch buffers.
	WS *tensor.Workspace
	// x caches the forward input for the backward pass.
	x *tensor.Dense
	// colSum is reusable scratch for the bias gradient.
	colSum []float64
}

// NewLinear constructs a Glorot-initialized linear layer.
func NewLinear(rng *rand.Rand, name string, in, out int) *Linear {
	l := &Linear{
		W: NewParam(name+".W", in, out),
		B: NewParam(name+".b", 1, out),
	}
	l.W.Value.GlorotInit(rng, in, out)
	return l
}

// Forward computes X·W + b and caches X.
func (l *Linear) Forward(x *tensor.Dense) *tensor.Dense {
	y := l.Product(x)
	y.AddBias(l.B.Value.Data)
	return y
}

// Product computes X·W alone and caches X. The caller adds the bias: a
// graph convolution does it in its Epilogue's pass.
func (l *Linear) Product(x *tensor.Dense) *tensor.Dense {
	l.x = x
	y := l.WS.Get(x.Rows, l.W.Value.Cols)
	tensor.MatMulInto(y, x, l.W.Value)
	return y
}

// BackwardParams accumulates dW = Xᵀ·dY and db = colsums(dY): the half
// of the backward pass every layer needs.
func (l *Linear) BackwardParams(dy *tensor.Dense) {
	if l.x == nil {
		panic("nn: Linear.BackwardParams before Forward")
	}
	dw := l.WS.Get(l.W.Value.Rows, l.W.Value.Cols)
	tensor.MatMulT1Into(dw, l.x, dy)
	l.W.Grad.AddInPlace(dw)
	l.WS.Put(dw)
	l.colSum = tensor.Grow(l.colSum, dy.Cols)
	cs := l.colSum
	dy.ColSumsInto(cs)
	for j, s := range cs {
		l.B.Grad.Data[j] += s
	}
}

// BackwardInput returns dX = dY·Wᵀ: the half only a layer with a
// trainable layer below it needs. No parameter gradient reads it.
func (l *Linear) BackwardInput(dy *tensor.Dense) *tensor.Dense {
	dx := l.WS.Get(dy.Rows, l.W.Value.Rows)
	tensor.MatMulT2Into(dx, dy, l.W.Value)
	return dx
}

// Params returns the layer's trainable parameters.
func (l *Linear) Params() []*Param { return []*Param{l.W, l.B} }

// Act names the nonlinearity an Epilogue applies.
type Act uint8

const (
	// Identity applies none: the output layer's epilogue adds its bias
	// and nothing else.
	Identity Act = iota
	// ReLU is max(0, x).
	ReLU
	// ELU is x for x > 0 and e^x − 1 otherwise (α = 1).
	ELU
)

// Dropout zeroes activations with probability P during training and
// rescales survivors by 1/(1-P) (inverted dropout).
type Dropout struct {
	P   float64
	Rng *rand.Rand
	// WS, when non-nil, supplies Forward's output buffer.
	WS *tensor.Workspace
	// mask holds 1/(1-P) for a kept element and 0 for a dropped one; it
	// is valid while on.
	mask []float64
	on   bool
}

// draw turns the mask on and fills it for n elements when train is set
// and P > 0, and turns it off otherwise. The draw is serial, one
// Rng.Float64() per element in order, so the rng sequence is
// independent of the parallelism setting; only applying the mask is
// sharded.
func (d *Dropout) draw(n int, train bool) bool {
	d.on = train && d.P > 0
	if !d.on {
		return false
	}
	keep := 1 - d.P
	scale := 1 / keep
	d.mask = tensor.Grow(d.mask, n)
	rng, mask := d.Rng, d.mask
	for i := range mask {
		mask[i] = keepIf(scale, rng.Float64() < keep)
	}
	return true
}

// masked is v under a mask entry m: v·m where kept, +0 where dropped
// (never v·0, which would carry v's sign).
func masked(v, m float64) float64 { return keepIf(v*m, m != 0) }

// keepIf is v where on and +0 elsewhere, without a branch: which
// entries ReLU and dropout zero is as good as random, and a
// mispredicted branch per element cost more than the rest of the pass.
// On one core, a ReLU epilogue's forward + backward over a 7717×64
// output took 7.6 ms with branches and 3.2 ms without; drawing a
// dropout mask of that size, 5.4 and 3.4 ms.
func keepIf(v float64, on bool) float64 {
	var bits uint64
	if on {
		bits = ^uint64(0)
	}
	return math.Float64frombits(math.Float64bits(v) & bits)
}

// Forward returns x itself when the mask is off (eval, or P <= 0), and
// otherwise x under a freshly drawn mask in a new buffer: the dropout
// on a network's input, which it does not own. Every later layer's
// dropout runs inside the Epilogue below it. Nothing needs its
// backward: no gradient flows into a network's input.
func (d *Dropout) Forward(x *tensor.Dense, train bool) *tensor.Dense {
	if !d.draw(len(x.Data), train) {
		return x
	}
	out := d.WS.Get(x.Rows, x.Cols)
	mask := d.mask
	tensor.ParallelRange(len(x.Data), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			out.Data[i] = masked(x.Data[i], mask[i])
		}
	})
	return out
}

// Epilogue is the elementwise tail of one graph convolution, run in
// place over the layer's output in one sharded pass: bias, activation,
// then the next layer's dropout. It saves what its backward pass reads —
// the ReLU mask, ELU's derivative (the pre-activation input is
// overwritten) and the dropout mask.
type Epilogue struct {
	Act Act
	// Drop is the next layer's input dropout; nil on the output layer.
	Drop *Dropout

	relu []bool    // ReLU: x > 0
	elu  []float64 // ELU: e^x where x <= 0, 1 elsewhere
}

// Forward runs the epilogue over y in place and returns it. Per
// element: y + b, or (y + b) + (y2 + b2) when y2 is non-nil (a layer
// with two linear paths), then the activation, then — when train is set
// and Drop is on — Drop's mask, drawn here, before the pass.
func (e *Epilogue) Forward(y *tensor.Dense, b []float64, y2 *tensor.Dense, b2 []float64, train bool) *tensor.Dense {
	n := len(y.Data)
	drop := e.Drop != nil && e.Drop.draw(n, train)
	switch e.Act {
	case ReLU:
		e.relu = tensor.Grow(e.relu, n)
	case ELU:
		e.elu = tensor.Grow(e.elu, n)
	}
	cols := y.Cols
	tensor.ParallelRows(y.Rows, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			off := i * cols
			row := y.Data[off : off+cols]
			if y2 == nil {
				for j := range row {
					row[j] += b[j]
				}
			} else {
				row2 := y2.Data[off : off+cols]
				for j := range row {
					row[j] = (row[j] + b[j]) + (row2[j] + b2[j])
				}
			}
			switch e.Act {
			case ReLU:
				mask := e.relu[off : off+cols]
				for j, v := range row {
					mask[j] = v > 0
					row[j] = keepIf(v, mask[j])
				}
			case ELU:
				der := e.elu[off : off+cols]
				for j, v := range row {
					if v <= 0 {
						ex := math.Exp(v)
						row[j], der[j] = ex-1, ex
					} else {
						der[j] = 1
					}
				}
			}
			if drop {
				mask := e.Drop.mask[off : off+cols]
				for j, v := range row {
					row[j] = masked(v, mask[j])
				}
			}
		}
	})
	return y
}

// Backward maps dy, the gradient at the epilogue's output, to the
// gradient at its input, in place: dy·mask where the dropout was on (a
// dropped entry keeps dy·0, a signed zero), then the activation's
// derivative. The bias gradient is the layer's: colsums of the result.
func (e *Epilogue) Backward(dy *tensor.Dense) {
	drop := e.Drop != nil && e.Drop.on
	if !drop && e.Act == Identity {
		return
	}
	tensor.ParallelRange(len(dy.Data), func(lo, hi int) {
		d := dy.Data[lo:hi]
		if drop {
			mask := e.Drop.mask[lo:hi]
			for i := range d {
				d[i] *= mask[i]
			}
		}
		switch e.Act {
		case ReLU:
			mask := e.relu[lo:hi]
			for i, on := range mask {
				d[i] = keepIf(d[i], on)
			}
		case ELU:
			der := e.elu[lo:hi]
			for i := range d {
				d[i] *= der[i]
			}
		}
	})
}

// SoftmaxCrossEntropy computes mean cross-entropy loss over rows of logits
// against integer labels, returning the loss and dLogits (already averaged
// over the batch).
func SoftmaxCrossEntropy(logits *tensor.Dense, labels []int32) (float64, *tensor.Dense) {
	return SoftmaxCrossEntropyWS(nil, logits, labels)
}

// SoftmaxCrossEntropyWS is SoftmaxCrossEntropy drawing the gradient
// buffer from ws (nil ws allocates). The returned gradient doubles as the
// probability scratch, so the whole loss costs one workspace buffer.
func SoftmaxCrossEntropyWS(ws *tensor.Workspace, logits *tensor.Dense, labels []int32) (float64, *tensor.Dense) {
	if logits.Rows != len(labels) {
		panic(fmt.Sprintf("nn: logits rows %d != labels %d", logits.Rows, len(labels)))
	}
	grad := ws.Get(logits.Rows, logits.Cols)
	logits.CopyInto(grad)
	grad.SoftmaxRows()
	n := float64(logits.Rows)
	var loss float64
	for i, y := range labels {
		p := grad.At(i, int(y))
		loss -= math.Log(math.Max(p, 1e-12))
		grad.Set(i, int(y), p-1)
	}
	grad.ScaleInPlace(1 / n)
	return loss / n, grad
}

// Accuracy returns the fraction of rows whose argmax equals the label.
func Accuracy(logits *tensor.Dense, labels []int32) float64 {
	if logits.Rows == 0 {
		return 0
	}
	pred := logits.ArgmaxRows()
	var correct int
	for i, y := range labels {
		if pred[i] == int(y) {
			correct++
		}
	}
	return float64(correct) / float64(len(labels))
}

// Adam implements the Adam optimizer with bias correction.
type Adam struct {
	LR, Beta1, Beta2, Eps float64

	t int
	m map[*Param][]float64
	v map[*Param][]float64
}

// NewAdam returns Adam with the conventional defaults.
func NewAdam(lr float64) *Adam {
	return &Adam{LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8}
}

// Step applies one update to params from their accumulated gradients,
// then zeroes the gradients.
func (o *Adam) Step(params []*Param) {
	if o.m == nil {
		o.m = make(map[*Param][]float64)
		o.v = make(map[*Param][]float64)
	}
	o.t++
	bc1 := 1 - math.Pow(o.Beta1, float64(o.t))
	bc2 := 1 - math.Pow(o.Beta2, float64(o.t))
	for _, p := range params {
		m, ok := o.m[p]
		if !ok {
			m = make([]float64, len(p.Value.Data))
			o.m[p] = m
			o.v[p] = make([]float64, len(p.Value.Data))
		}
		v := o.v[p]
		val, grad := p.Value.Data, p.Grad.Data
		tensor.ParallelRange(len(val), func(lo, hi int) {
			for i := lo; i < hi; i++ {
				g := grad[i]
				m[i] = o.Beta1*m[i] + (1-o.Beta1)*g
				v[i] = o.Beta2*v[i] + (1-o.Beta2)*g*g
				mhat := m[i] / bc1
				vhat := v[i] / bc2
				val[i] -= o.LR * mhat / (math.Sqrt(vhat) + o.Eps)
			}
		})
		p.ZeroGrad()
	}
}

// AdamState is the optimizer's full mutable state in a serializable
// form: the step count plus first/second moment vectors aligned with a
// caller-supplied parameter order. It exists for checkpointing — a
// restored (params, AdamState) pair continues the update sequence
// bitwise-identically to a never-interrupted run.
type AdamState struct {
	T int
	// M and V hold the moment vectors per parameter, in the same order as
	// the params slice given to State/SetState. A nil entry means the
	// moments for that parameter were never touched (T == 0).
	M, V [][]float64
}

// State snapshots the optimizer state for params (copies, in the given
// order).
func (o *Adam) State(params []*Param) AdamState {
	st := AdamState{T: o.t, M: make([][]float64, len(params)), V: make([][]float64, len(params))}
	for i, p := range params {
		if m, ok := o.m[p]; ok {
			st.M[i] = append([]float64(nil), m...)
			st.V[i] = append([]float64(nil), o.v[p]...)
		}
	}
	return st
}

// SetState restores a snapshot taken by State over the same parameter
// order. Moment lengths must match the parameter sizes.
func (o *Adam) SetState(params []*Param, st AdamState) error {
	if len(st.M) != len(params) || len(st.V) != len(params) {
		return fmt.Errorf("nn: adam state holds %d/%d moment vectors for %d params", len(st.M), len(st.V), len(params))
	}
	o.t = st.T
	o.m = make(map[*Param][]float64, len(params))
	o.v = make(map[*Param][]float64, len(params))
	for i, p := range params {
		if st.M[i] == nil {
			continue
		}
		if len(st.M[i]) != p.Size() || len(st.V[i]) != p.Size() {
			return fmt.Errorf("nn: adam moments for param %q hold %d/%d scalars, want %d", p.Name, len(st.M[i]), len(st.V[i]), p.Size())
		}
		o.m[p] = append([]float64(nil), st.M[i]...)
		o.v[p] = append([]float64(nil), st.V[i]...)
	}
	return nil
}

// CountParams returns the total number of scalars across params. Only
// tests call it; the model and backend tests check |Φ| against it.
func CountParams(params []*Param) int {
	var n int
	for _, p := range params {
		n += p.Size()
	}
	return n
}
