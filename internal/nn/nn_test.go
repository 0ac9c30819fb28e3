package nn

import (
	"math"
	"math/rand"
	"testing"

	"gnnavigator/internal/tensor"
)

// numericalGrad estimates dLoss/dx[i] by central differences.
func numericalGrad(f func() float64, x *tensor.Dense, i int) float64 {
	const h = 1e-6
	orig := x.Data[i]
	x.Data[i] = orig + h
	up := f()
	x.Data[i] = orig - h
	down := f()
	x.Data[i] = orig
	return (up - down) / (2 * h)
}

// fromSlice wraps data (not copied) as a rows x cols matrix.
func fromSlice(rows, cols int, data []float64) *tensor.Dense {
	return &tensor.Dense{Rows: rows, Cols: cols, Data: data}
}

func TestLinearForwardKnown(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	l := NewLinear(rng, "l", 2, 2)
	l.W.Value = fromSlice(2, 2, []float64{1, 2, 3, 4})
	l.B.Value = fromSlice(1, 2, []float64{0.5, -0.5})
	x := fromSlice(1, 2, []float64{1, 1})
	y := l.Forward(x)
	if math.Abs(y.At(0, 0)-4.5) > 1e-12 || math.Abs(y.At(0, 1)-5.5) > 1e-12 {
		t.Errorf("Forward = %v, want [4.5 5.5]", y.Data)
	}
}

func TestLinearGradCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	l := NewLinear(rng, "l", 3, 2)
	x := tensor.New(4, 3)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	labels := []int32{0, 1, 0, 1}
	loss := func() float64 {
		y := l.Forward(x)
		lo, _ := SoftmaxCrossEntropy(y, labels)
		return lo
	}
	// Analytic grads.
	y := l.Forward(x)
	_, dy := SoftmaxCrossEntropy(y, labels)
	l.BackwardParams(dy)
	dx := l.BackwardInput(dy)

	for _, check := range []struct {
		name string
		m    *tensor.Dense
		grad *tensor.Dense
	}{
		{"W", l.W.Value, l.W.Grad},
		{"B", l.B.Value, l.B.Grad},
		{"x", x, dx},
	} {
		for i := 0; i < len(check.m.Data); i += 2 {
			want := numericalGrad(loss, check.m, i)
			got := check.grad.Data[i]
			if math.Abs(got-want) > 1e-5 {
				t.Errorf("%s grad[%d] = %v, want %v", check.name, i, got, want)
			}
		}
	}
}

// TestActivationsGradCheck checks the Epilogue's backward pass against
// central differences of its forward pass, for every activation, with
// and without dropout, over the two-path form (y+b)+(y2+b2). The loss
// is Σ w⊙out; dropout redraws from the same seed on every pass.
func TestActivationsGradCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, act := range []Act{Identity, ReLU, ELU} {
		for _, p := range []float64{0, 0.5} {
			x, x2, w := tensor.New(4, 5), tensor.New(4, 5), tensor.New(4, 5)
			b, b2 := tensor.New(1, 5), tensor.New(1, 5)
			for _, m := range []*tensor.Dense{x, x2, w, b, b2} {
				for i := range m.Data {
					m.Data[i] = rng.NormFloat64()
				}
			}
			// Keep the pre-activation away from the ReLU kink, where the
			// numerical gradient is ill-defined.
			for i := range x.Data {
				j := i % 5
				if pre := (x.Data[i] + b.Data[j]) + (x2.Data[i] + b2.Data[j]); math.Abs(pre) < 0.05 {
					x.Data[i] += 0.1
				}
			}
			e := &Epilogue{Act: act, Drop: &Dropout{P: p}}
			run := func() *tensor.Dense {
				e.Drop.Rng = rand.New(rand.NewSource(8))
				return e.Forward(x.Clone(), b.Data, x2.Clone(), b2.Data, true)
			}
			loss := func() float64 {
				var s float64
				for i, v := range run().Data {
					s += w.Data[i] * v
				}
				return s
			}
			run()
			dy := w.Clone()
			e.Backward(dy)
			db := tensor.New(1, 5)
			dy.ColSumsInto(db.Data)
			for _, check := range []struct {
				name string
				m    *tensor.Dense
				grad *tensor.Dense
			}{{"x", x, dy}, {"x2", x2, dy}, {"b", b, db}, {"b2", b2, db}} {
				for i := range check.m.Data {
					want := numericalGrad(loss, check.m, i)
					if got := check.grad.Data[i]; math.Abs(got-want) > 1e-4 {
						t.Errorf("act %d p=%v: %s grad[%d] = %v, want %v", act, p, check.name, i, got, want)
					}
				}
			}
		}
	}
}

func TestSoftmaxCrossEntropyKnown(t *testing.T) {
	// Uniform logits over 4 classes: loss = ln(4).
	logits := tensor.New(2, 4)
	loss, grad := SoftmaxCrossEntropy(logits, []int32{0, 3})
	if math.Abs(loss-math.Log(4)) > 1e-12 {
		t.Errorf("loss = %v, want ln4 = %v", loss, math.Log(4))
	}
	// Gradient at true class: (p - 1)/n = (0.25-1)/2.
	if math.Abs(grad.At(0, 0)-(-0.375)) > 1e-12 {
		t.Errorf("grad(0,0) = %v, want -0.375", grad.At(0, 0))
	}
	if math.Abs(grad.At(0, 1)-0.125) > 1e-12 {
		t.Errorf("grad(0,1) = %v, want 0.125", grad.At(0, 1))
	}
}

func TestAccuracy(t *testing.T) {
	logits := fromSlice(3, 2, []float64{2, 1, 0, 5, 1, 0})
	acc := Accuracy(logits, []int32{0, 1, 1})
	if math.Abs(acc-2.0/3) > 1e-12 {
		t.Errorf("Accuracy = %v, want 2/3", acc)
	}
	if Accuracy(tensor.New(0, 2), nil) != 0 {
		t.Error("empty accuracy should be 0")
	}
}

func TestDropoutTrainEval(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	d := &Dropout{P: 0.5, Rng: rng}
	x := tensor.New(10, 10)
	for i := range x.Data {
		x.Data[i] = 1
	}
	// Eval mode: identity.
	y := d.Forward(x, false)
	for i := range y.Data {
		if y.Data[i] != 1 {
			t.Fatal("eval-mode dropout modified input")
		}
	}
	// Train mode: some zeros, survivors scaled by 2; the input is kept.
	y = d.Forward(x, true)
	var zeros, twos int
	for _, v := range y.Data {
		switch v {
		case 0:
			zeros++
		case 2:
			twos++
		default:
			t.Fatalf("unexpected dropout output %v", v)
		}
	}
	if zeros == 0 || twos == 0 {
		t.Errorf("dropout degenerate: zeros=%d twos=%d", zeros, twos)
	}
	if x.Data[0] != 1 {
		t.Fatal("train-mode dropout wrote its input")
	}
	// Inside an epilogue, the same seed draws the same mask, and
	// backward respects it.
	e := &Epilogue{Drop: &Dropout{P: 0.5, Rng: rand.New(rand.NewSource(4))}}
	ye := e.Forward(x.Clone(), make([]float64, 10), nil, nil, true)
	dy := tensor.New(10, 10)
	for i := range dy.Data {
		dy.Data[i] = 1
	}
	e.Backward(dy)
	for i := range dy.Data {
		if ye.Data[i] != y.Data[i] || (y.Data[i] == 0) != (dy.Data[i] == 0) {
			t.Fatal("epilogue dropout forward or backward mask mismatch")
		}
	}
}

// TestAdamConverges: Adam must cut the initial loss at least in half on a
// separable linear softmax problem.
func TestAdamConverges(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	l := NewLinear(rng, "l", 4, 2)
	x := tensor.New(40, 4)
	labels := make([]int32, 40)
	for i := range labels {
		labels[i] = int32(i % 2)
		for j := 0; j < 4; j++ {
			x.Set(i, j, rng.NormFloat64()+2*float64(labels[i]))
		}
	}
	opt := NewAdam(0.05)
	var first, last float64
	for step := 0; step < 60; step++ {
		y := l.Forward(x)
		loss, dy := SoftmaxCrossEntropy(y, labels)
		if step == 0 {
			first = loss
		}
		last = loss
		l.BackwardParams(dy)
		opt.Step(l.Params())
	}
	if last > first*0.5 {
		t.Errorf("Adam converged poorly: first=%v last=%v", first, last)
	}
}

func TestCountParams(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	l := NewLinear(rng, "l", 8, 16)
	if got := CountParams(l.Params()); got != 8*16+16 {
		t.Errorf("CountParams = %d, want %d", got, 8*16+16)
	}
}
