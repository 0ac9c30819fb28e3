package plan

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"os"

	"gnnavigator/internal/faultinject"
	"gnnavigator/internal/safefile"
)

// Binary plan persistence: a fixed magic/version header, the key, the
// shape, then the raw little-endian arrays, closed by a CRC-64 footer.
// Plans are pure int32/int64 data, so the format is a straight dump —
// gnnavigator -save-plan / -load-plan round-trips through it. The
// atomic write and footer verification live in internal/safefile, the
// discipline shared with checkpoints and saved models.
//
// Version history:
//
//	GNAVPLN1 — header + body, no integrity check. No longer read: it
//	           fails as bad magic.
//	GNAVPLN2 — header + body + CRC-64/ECMA of the body as the trailing
//	           8 bytes (little-endian). Truncation and bit flips anywhere
//	           in the body or footer are rejected on load.

var planMagicV2 = [8]byte{'G', 'N', 'A', 'V', 'P', 'L', 'N', '2'}

// SaveFile writes the plan to path (atomically via rename, in the
// current GNAVPLN2 format). A failed write or rename leaves no *.tmp
// file behind.
func SaveFile(path string, p *Plan) error {
	if err := faultinject.Fire(faultinject.PlanSave); err != nil {
		return fmt.Errorf("plan: save %s: %w", path, err)
	}
	var body bytes.Buffer
	if err := writePlanBody(&body, p); err != nil {
		return fmt.Errorf("plan: save %s: %w", path, err)
	}
	payload := body.Bytes()
	// The checksum covers the intact body; the chaos Mutate hook flips
	// bits only after it is computed, modelling media corruption that the
	// load-side verification must catch.
	sum := safefile.Checksum(payload)
	faultinject.Mutate(faultinject.PlanSave, payload)
	if err := safefile.Write(path, planMagicV2, payload, sum); err != nil {
		return fmt.Errorf("plan: save %s: %w", path, err)
	}
	return nil
}

// LoadFile reads a plan previously written by SaveFile. It verifies the
// CRC footer over the exact body bytes, then parses. The whole rest of
// the file is read up front so truncation is indistinguishable from
// corruption — both fail the checksum, never a partial parse.
func LoadFile(path string) (*Plan, error) {
	if err := faultinject.Fire(faultinject.PlanLoad); err != nil {
		return nil, fmt.Errorf("plan: load %s: %w", path, err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if len(data) < 8 {
		return nil, fmt.Errorf("plan: load %s: truncated (%d bytes)", path, len(data))
	}
	if magic := data[:8]; !bytes.Equal(magic, planMagicV2[:]) {
		return nil, fmt.Errorf("plan: load %s: bad magic %q (not a plan file or wrong version)", path, magic)
	}
	payload, err := safefile.Verify(data[8:])
	if err != nil {
		return nil, fmt.Errorf("plan: load %s: %w", path, err)
	}
	br := bytes.NewReader(payload)
	p, err := readPlanBody(br)
	if err == nil && br.Len() != 0 {
		err = fmt.Errorf("corrupt plan: %d trailing bytes after body", br.Len())
	}
	if err != nil {
		return nil, fmt.Errorf("plan: load %s: %w", path, err)
	}
	return p, nil
}

// writePlanBody serializes everything after the magic: key, shape,
// arrays.
func writePlanBody(w io.Writer, p *Plan) error {
	if err := safefile.WriteString(w, p.key.Dataset); err != nil {
		return err
	}
	if err := safefile.WriteString(w, p.key.Sampler); err != nil {
		return err
	}
	scalars := []int64{
		boolInt(p.key.Reorder), int64(p.key.BatchSize), p.key.Seed,
		int64(p.key.Epochs), boolInt(p.key.Shuffle), int64(p.key.Targets),
		int64(p.key.TargetsFP), int64(p.layers), int64(p.perEpoch),
	}
	if err := binary.Write(w, binary.LittleEndian, scalars); err != nil {
		return err
	}
	for _, arr := range [][]int32{p.nodes, p.offsets, p.indices, p.blockDst} {
		if err := writeInt32s(w, arr); err != nil {
			return err
		}
	}
	for _, arr := range [][]int64{p.batchNode, p.blockOff, p.blockIdx} {
		if err := writeInt64s(w, arr); err != nil {
			return err
		}
	}
	return nil
}

func readPlanBody(r io.Reader) (*Plan, error) {
	p := &Plan{}
	var err error
	if p.key.Dataset, err = safefile.ReadString(r); err != nil {
		return nil, err
	}
	if p.key.Sampler, err = safefile.ReadString(r); err != nil {
		return nil, err
	}
	scalars := make([]int64, 9)
	if err := binary.Read(r, binary.LittleEndian, scalars); err != nil {
		return nil, err
	}
	p.key.Reorder = scalars[0] != 0
	p.key.BatchSize = int(scalars[1])
	p.key.Seed = scalars[2]
	p.key.Epochs = int(scalars[3])
	p.key.Shuffle = scalars[4] != 0
	p.key.Targets = int(scalars[5])
	p.key.TargetsFP = uint64(scalars[6])
	p.layers = int(scalars[7])
	p.perEpoch = int(scalars[8])
	if p.layers < 1 || p.perEpoch < 1 || p.key.Epochs < 1 {
		return nil, fmt.Errorf("corrupt plan shape layers=%d perEpoch=%d epochs=%d", p.layers, p.perEpoch, p.key.Epochs)
	}
	for _, dst := range []*[]int32{&p.nodes, &p.offsets, &p.indices, &p.blockDst} {
		if *dst, err = readInt32s(r); err != nil {
			return nil, err
		}
	}
	for _, dst := range []*[]int64{&p.batchNode, &p.blockOff, &p.blockIdx} {
		if *dst, err = readInt64s(r); err != nil {
			return nil, err
		}
	}
	nb := p.NumBatches()
	if len(p.batchNode) != nb+1 || len(p.blockDst) != nb*p.layers ||
		len(p.blockOff) != nb*p.layers || len(p.blockIdx) != nb*p.layers {
		return nil, fmt.Errorf("corrupt plan extents")
	}
	return p, nil
}

func boolInt(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// The plan's array fields can legitimately reach billions of entries at
// paper scale, so they keep a wider read bound (1<<34) than the shared
// safefile codec allows.

func writeInt32s(w io.Writer, arr []int32) error {
	if err := binary.Write(w, binary.LittleEndian, int64(len(arr))); err != nil {
		return err
	}
	return binary.Write(w, binary.LittleEndian, arr)
}

func readInt32s(r io.Reader) ([]int32, error) {
	var n int64
	if err := binary.Read(r, binary.LittleEndian, &n); err != nil {
		return nil, err
	}
	if n < 0 || n > 1<<34 {
		return nil, fmt.Errorf("corrupt array length %d", n)
	}
	arr := make([]int32, n)
	if err := binary.Read(r, binary.LittleEndian, arr); err != nil {
		return nil, err
	}
	return arr, nil
}

func writeInt64s(w io.Writer, arr []int64) error {
	if err := binary.Write(w, binary.LittleEndian, int64(len(arr))); err != nil {
		return err
	}
	return binary.Write(w, binary.LittleEndian, arr)
}

func readInt64s(r io.Reader) ([]int64, error) {
	var n int64
	if err := binary.Read(r, binary.LittleEndian, &n); err != nil {
		return nil, err
	}
	if n < 0 || n > 1<<34 {
		return nil, fmt.Errorf("corrupt array length %d", n)
	}
	arr := make([]int64, n)
	if err := binary.Read(r, binary.LittleEndian, arr); err != nil {
		return nil, err
	}
	return arr, nil
}
