package backend

import (
	"bytes"
	"fmt"
	"io"

	"gnnavigator/internal/faultinject"
	"gnnavigator/internal/nn"
	"gnnavigator/internal/safefile"
)

// Checkpoint persistence for RunWith: a periodic atomic snapshot of
// everything the trainer mutates that the pipeline cannot re-derive —
// model parameters, Adam moments, and the per-epoch accuracy history —
// keyed by the run config's fingerprint and the number of completed
// epochs.
//
// Everything else (cache residency, plan position, Perf volume counters)
// is a pure function of the config, so resume reconstructs it by
// fast-forwarding the pipeline through the completed epochs while the
// trainer sits them out; see trainer. That is what makes a resumed run
// bitwise-identical to a never-interrupted one.
//
// Format: magic "GNAVCKP1", body, CRC-64/ECMA of the body as the
// trailing 8 bytes (little-endian) — the footer discipline shared with
// the plan and model formats via internal/safefile. Files are written
// atomically (tmp+rename) and a failed write or rename leaves no *.tmp
// behind.

var ckptMagic = [8]byte{'G', 'N', 'A', 'V', 'C', 'K', 'P', '1'}

// snapshot captures the trainer's state after `epochs` completed epochs
// (copies everywhere — the run keeps mutating the originals).
func (t *trainer) snapshot(epochs int) *Checkpoint {
	params := t.mdl.Params()
	ck := &Checkpoint{
		Fingerprint: t.cfg.Fingerprint(),
		Epochs:      epochs,
		Params:      make([][]float64, len(params)),
		Adam:        t.opt.State(params),
		AccHistory:  append([]float64(nil), t.history...),
	}
	for i, p := range params {
		ck.Params[i] = append([]float64(nil), p.Value.Data...)
	}
	return ck
}

// resume loads the checkpoint at path, checks that the trainer's run can
// continue from it (same config, no more completed epochs than the run
// wants, one accuracy entry per completed epoch) and installs it into
// the freshly built model and optimizer; a trainer that fails to
// resume is half-restored and must be dropped.
func (t *trainer) resume(path string) error {
	ck, err := LoadCheckpoint(path)
	if err != nil {
		return err
	}
	if ck.Fingerprint != t.cfg.Fingerprint() {
		return fmt.Errorf("backend: checkpoint %s was taken under a different config", path)
	}
	if ck.Epochs > t.cfg.Epochs {
		return fmt.Errorf("backend: checkpoint %s holds %d completed epochs, run wants %d", path, ck.Epochs, t.cfg.Epochs)
	}
	if len(ck.AccHistory) != ck.Epochs {
		return fmt.Errorf("backend: checkpoint %s: %d accuracy entries for %d epochs", path, len(ck.AccHistory), ck.Epochs)
	}
	params := t.mdl.Params()
	if len(ck.Params) != len(params) {
		return fmt.Errorf("backend: resume from %s: checkpoint holds %d params, model has %d", path, len(ck.Params), len(params))
	}
	for i, p := range params {
		if len(ck.Params[i]) != len(p.Value.Data) {
			return fmt.Errorf("backend: resume from %s: checkpoint param %d holds %d scalars, model param %q has %d",
				path, i, len(ck.Params[i]), p.Name, len(p.Value.Data))
		}
		copy(p.Value.Data, ck.Params[i])
	}
	if err := t.opt.SetState(params, ck.Adam); err != nil {
		return fmt.Errorf("backend: resume from %s: %w", path, err)
	}
	t.resumed, t.history = ck.Epochs, ck.AccHistory
	return nil
}

// Checkpoint is one resumable training snapshot.
type Checkpoint struct {
	// Fingerprint identifies the run configuration the snapshot belongs
	// to (Config.Fingerprint()); resume refuses a mismatch rather than
	// silently continuing a different run.
	Fingerprint string
	// Epochs is the number of fully completed training epochs.
	Epochs int
	// Params holds every trainable parameter's values, flattened, in
	// Model.Params() order.
	Params [][]float64
	// Adam is the optimizer state over the same parameter order.
	Adam nn.AdamState
	// AccHistory is the per-epoch validation accuracy so far (length
	// Epochs).
	AccHistory []float64
}

// SaveCheckpoint writes ck to path atomically.
func SaveCheckpoint(path string, ck *Checkpoint) error {
	if err := faultinject.Fire(faultinject.CheckpointSave); err != nil {
		return fmt.Errorf("backend: save checkpoint %s: %w", path, err)
	}
	var body bytes.Buffer
	if err := writeCheckpointBody(&body, ck); err != nil {
		return fmt.Errorf("backend: save checkpoint %s: %w", path, err)
	}
	payload := body.Bytes()
	// Checksum the intact body; the chaos Mutate hook corrupts after, so
	// the load side must catch it.
	sum := safefile.Checksum(payload)
	faultinject.Mutate(faultinject.CheckpointSave, payload)
	if err := safefile.Write(path, ckptMagic, payload, sum); err != nil {
		return fmt.Errorf("backend: save checkpoint %s: %w", path, err)
	}
	return nil
}

// LoadCheckpoint reads and verifies a snapshot written by SaveCheckpoint.
func LoadCheckpoint(path string) (*Checkpoint, error) {
	if err := faultinject.Fire(faultinject.CheckpointLoad); err != nil {
		return nil, fmt.Errorf("backend: load checkpoint %s: %w", path, err)
	}
	payload, err := safefile.Read(path, ckptMagic)
	if err != nil {
		return nil, fmt.Errorf("backend: load checkpoint %s: %w", path, err)
	}
	br := bytes.NewReader(payload)
	ck, err := readCheckpointBody(br)
	if err != nil {
		return nil, fmt.Errorf("backend: load checkpoint %s: %w", path, err)
	}
	if br.Len() != 0 {
		return nil, fmt.Errorf("backend: load checkpoint %s: %d trailing bytes after body", path, br.Len())
	}
	return ck, nil
}

func writeCheckpointBody(w io.Writer, ck *Checkpoint) error {
	if err := safefile.WriteString(w, ck.Fingerprint); err != nil {
		return err
	}
	if err := safefile.WriteInt(w, int64(ck.Epochs)); err != nil {
		return err
	}
	if err := safefile.WriteFloats(w, ck.AccHistory); err != nil {
		return err
	}
	if err := safefile.WriteInt(w, int64(len(ck.Params))); err != nil {
		return err
	}
	for _, p := range ck.Params {
		if err := safefile.WriteFloats(w, p); err != nil {
			return err
		}
	}
	if err := safefile.WriteInt(w, int64(ck.Adam.T)); err != nil {
		return err
	}
	if len(ck.Adam.M) != len(ck.Params) || len(ck.Adam.V) != len(ck.Params) {
		return fmt.Errorf("checkpoint adam state holds %d/%d moment vectors for %d params",
			len(ck.Adam.M), len(ck.Adam.V), len(ck.Params))
	}
	for i := range ck.Params {
		if err := safefile.WriteFloats(w, ck.Adam.M[i]); err != nil {
			return err
		}
		if err := safefile.WriteFloats(w, ck.Adam.V[i]); err != nil {
			return err
		}
	}
	return nil
}

func readCheckpointBody(r io.Reader) (*Checkpoint, error) {
	ck := &Checkpoint{}
	var err error
	if ck.Fingerprint, err = safefile.ReadString(r); err != nil {
		return nil, err
	}
	epochs, err := safefile.ReadInt(r)
	if err != nil {
		return nil, err
	}
	if epochs < 0 || epochs > 1<<20 {
		return nil, fmt.Errorf("corrupt epoch count %d", epochs)
	}
	ck.Epochs = int(epochs)
	if ck.AccHistory, err = safefile.ReadFloats(r); err != nil {
		return nil, err
	}
	nparams, err := safefile.ReadInt(r)
	if err != nil {
		return nil, err
	}
	if nparams < 0 || nparams > 1<<20 {
		return nil, fmt.Errorf("corrupt param count %d", nparams)
	}
	ck.Params = make([][]float64, nparams)
	for i := range ck.Params {
		if ck.Params[i], err = safefile.ReadFloats(r); err != nil {
			return nil, err
		}
	}
	t, err := safefile.ReadInt(r)
	if err != nil {
		return nil, err
	}
	ck.Adam.T = int(t)
	ck.Adam.M = make([][]float64, nparams)
	ck.Adam.V = make([][]float64, nparams)
	for i := 0; i < int(nparams); i++ {
		if ck.Adam.M[i], err = safefile.ReadFloats(r); err != nil {
			return nil, err
		}
		if ck.Adam.V[i], err = safefile.ReadFloats(r); err != nil {
			return nil, err
		}
	}
	return ck, nil
}
