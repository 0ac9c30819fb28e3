// Package nn provides the neural-network building blocks for the pure-Go
// GNN trainer: parameterized linear layers, activations with exact
// backward passes, dropout, the softmax cross-entropy loss, and the Adam
// optimizer.
//
// Every layer optionally carries a *tensor.Workspace (the WS field, nil
// by default). With a workspace attached, forward/backward passes draw
// their outputs and scratch from the arena instead of allocating, so a
// steady-state training iteration is allocation-free; the owner of the
// training loop calls ws.ReleaseAll() once per iteration. With WS nil
// every layer behaves exactly as before (fresh allocations), which keeps
// standalone use and old call sites working unchanged.
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
	l.x = x
	y := l.WS.Get(x.Rows, l.W.Value.Cols)
	tensor.MatMulInto(y, x, l.W.Value)
	y.AddBias(l.B.Value.Data)
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

// Activation is an elementwise nonlinearity with an exact derivative.
type Activation interface {
	// Forward applies the nonlinearity, returning a new matrix and caching
	// what the backward pass needs.
	Forward(x *tensor.Dense) *tensor.Dense
	// Backward maps upstream gradients through the nonlinearity.
	Backward(dy *tensor.Dense) *tensor.Dense
	// SetWorkspace attaches (or detaches, with nil) the buffer arena.
	// Part of the interface so new activations cannot silently miss the
	// zero-alloc wiring.
	SetWorkspace(ws *tensor.Workspace)
	Name() string
}

// ReLU is max(0, x).
type ReLU struct {
	WS   *tensor.Workspace
	mask []bool
}

// Name implements Activation.
func (r *ReLU) Name() string { return "relu" }

// SetWorkspace implements Activation.
func (r *ReLU) SetWorkspace(ws *tensor.Workspace) { r.WS = ws }

// Forward implements Activation.
func (r *ReLU) Forward(x *tensor.Dense) *tensor.Dense {
	out := r.WS.Get(x.Rows, x.Cols)
	r.mask = tensor.Grow(r.mask, len(x.Data))
	mask := r.mask
	tensor.ParallelRange(len(x.Data), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			v := x.Data[i]
			if v > 0 {
				mask[i] = true
				out.Data[i] = v
			} else {
				mask[i] = false
				out.Data[i] = 0
			}
		}
	})
	return out
}

// Backward implements Activation.
func (r *ReLU) Backward(dy *tensor.Dense) *tensor.Dense {
	out := r.WS.Get(dy.Rows, dy.Cols)
	mask := r.mask
	tensor.ParallelRange(len(dy.Data), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			if mask[i] {
				out.Data[i] = dy.Data[i]
			} else {
				out.Data[i] = 0
			}
		}
	})
	return out
}

// ELU is x for x>0, alpha*(e^x - 1) otherwise.
type ELU struct {
	Alpha float64
	WS    *tensor.Workspace
	// With a workspace attached, x aliases the forward input, which
	// stays valid through backward because workspace buffers are only
	// recycled at iteration end. Without one, x is a private clone so
	// standalone callers may mutate their input between passes (the
	// seed behavior).
	x *tensor.Dense
}

// Name implements Activation.
func (e *ELU) Name() string { return "elu" }

// SetWorkspace implements Activation.
func (e *ELU) SetWorkspace(ws *tensor.Workspace) { e.WS = ws }

// Forward implements Activation.
func (e *ELU) Forward(x *tensor.Dense) *tensor.Dense {
	if e.Alpha == 0 {
		e.Alpha = 1
	}
	if e.WS == nil {
		e.x = x.Clone()
	} else {
		e.x = x
	}
	out := e.WS.Get(x.Rows, x.Cols)
	alpha := e.Alpha
	tensor.ParallelRange(len(x.Data), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			v := x.Data[i]
			if v <= 0 {
				v = alpha * (math.Exp(v) - 1)
			}
			out.Data[i] = v
		}
	})
	return out
}

// Backward implements Activation.
func (e *ELU) Backward(dy *tensor.Dense) *tensor.Dense {
	out := e.WS.Get(dy.Rows, dy.Cols)
	alpha := e.Alpha
	x := e.x
	tensor.ParallelRange(len(dy.Data), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			g := dy.Data[i]
			if v := x.Data[i]; v <= 0 {
				g *= alpha * math.Exp(v)
			}
			out.Data[i] = g
		}
	})
	return out
}

// Dropout zeroes activations with probability P during training and
// rescales survivors by 1/(1-P) (inverted dropout).
type Dropout struct {
	P    float64
	Rng  *rand.Rand
	WS   *tensor.Workspace
	mask []float64
	on   bool
}

// Forward applies dropout when train is true; identity otherwise. The
// mask draw stays serial so the rng sequence is independent of the
// parallelism setting.
func (d *Dropout) Forward(x *tensor.Dense, train bool) *tensor.Dense {
	if !train || d.P <= 0 {
		d.on = false
		return x
	}
	keep := 1 - d.P
	out := d.WS.Get(x.Rows, x.Cols)
	d.mask = tensor.Grow(d.mask, len(x.Data))
	d.on = true
	for i, v := range x.Data {
		if d.Rng.Float64() < keep {
			d.mask[i] = 1 / keep
			out.Data[i] = v * d.mask[i]
		} else {
			d.mask[i] = 0
			out.Data[i] = 0
		}
	}
	return out
}

// Backward maps gradients through the dropout mask.
func (d *Dropout) Backward(dy *tensor.Dense) *tensor.Dense {
	if !d.on {
		return dy
	}
	out := d.WS.Get(dy.Rows, dy.Cols)
	mask := d.mask
	tensor.ParallelRange(len(dy.Data), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			out.Data[i] = dy.Data[i] * mask[i]
		}
	})
	return out
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
