package rpc

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"

	"github.com/fusionstore/fusion/internal/colenc"
	"github.com/fusionstore/fusion/internal/lpq"
	"github.com/fusionstore/fusion/internal/sql"
)

// Wire format. A message is its fields in declaration order, nested structs
// and slice elements inline, with no type descriptors and no field tags:
//
//	unsigned integers   uvarint
//	signed integers     zigzag varint
//	float64             uvarint of the byte-reversed IEEE bits (0, and
//	                    values with few mantissa bits, take 1–3 bytes)
//	bool, Kind          one byte (a bool is exactly 0 or 1)
//	string, []byte      uvarint length, then the bytes
//	slice               uvarint count, then the elements
//
// Subs are encoded by the same functions one level deep: a sub-message
// carries a zero Subs count. An empty slice decodes as nil.
//
// Every length and count is checked against the bytes still unread before
// anything is allocated (a count against the smallest encoding of that many
// elements), so a decode allocates in proportion to the frame it was given
// whatever the frame declares. FuzzFrame pins that.
//
// Payload fields (Request.Data, Request.Bitmap, Response.Data) are the bulk
// of the traffic and are never copied on either side. Encoding leaves a
// payload of inlineMax bytes or more out of the header buffer and returns the
// message as wire-order segments for one vectored write; decoding returns
// payloads as capacity-clipped sub-slices of the frame buffer, which must
// therefore outlive the decoded message.

// inlineMax is the payload size from which encoding references the caller's
// slice instead of copying it: below it the copy is cheaper than one more
// entry in the write vector.
const inlineMax = 4 << 10

var (
	errTruncated = errors.New("rpc: wire: truncated message")
	errVarint    = errors.New("rpc: wire: varint overflows 64 bits")
	errRange     = errors.New("rpc: wire: value out of range")
	errBool      = errors.New("rpc: wire: bool is neither 0 nor 1")
	errCount     = errors.New("rpc: wire: count exceeds the bytes present")
	errTrailing  = errors.New("rpc: wire: trailing bytes")
	errNested    = errors.New("rpc: wire: Subs outside a top-level batch")
	errBatchSize = errors.New("rpc: wire: more than MaxBatchOps sub-messages")
)

// AppendRequest appends r's encoding to dst and returns the extended buffer
// together with the message's wire-order segments appended to segs: slices
// of the buffer (the first starts at dst[0], so a caller's prefix goes out
// with it) alternating with the payloads of r left out of it. The segments
// alias both the buffer and r. A malformed batch (ValidateBatch) or Subs
// anywhere but on a top-level KindBatch request is an error.
func AppendRequest(dst []byte, segs [][]byte, r *Request) ([]byte, [][]byte, error) {
	var scratch [4]cut
	e := encoder{b: dst, cuts: scratch[:0]}
	if err := e.request(r, true); err != nil {
		return dst, segs, err
	}
	return e.b, e.segments(segs), nil
}

// AppendResponse is AppendRequest for a response. More than MaxBatchOps
// sub-responses, or a sub-response with Subs of its own, is an error.
func AppendResponse(dst []byte, segs [][]byte, r *Response) ([]byte, [][]byte, error) {
	var scratch [4]cut
	e := encoder{b: dst, cuts: scratch[:0]}
	if err := e.response(r, true); err != nil {
		return dst, segs, err
	}
	return e.b, e.segments(segs), nil
}

// DecodeRequest decodes one request occupying all of b into r, overwriting
// every field. r.Data and r.Bitmap (and those of r.Subs) alias b.
func DecodeRequest(b []byte, r *Request) error {
	d := decoder{b: b}
	d.request(r, true)
	return d.finish()
}

// DecodeResponse decodes one response occupying all of b into r, overwriting
// every field. r.Data (and that of r.Subs) aliases b.
func DecodeResponse(b []byte, r *Response) error {
	d := decoder{b: b}
	d.response(r, true)
	r.frame = nil
	return d.finish()
}

// DecodePooledResponse is DecodeResponse for a frame b rented from bufpool: on
// success r remembers b, and r.Release returns it (see Release for who may).
// On failure b stays the caller's.
func DecodePooledResponse(b []byte, r *Response) error {
	err := DecodeResponse(b, r)
	if err == nil {
		r.frame = b
	}
	return err
}

// cut marks a payload that belongs at offset off of the encoded bytes but
// was not copied into them.
type cut struct {
	off int
	p   []byte
}

type encoder struct {
	b    []byte
	cuts []cut
}

// segments appends the message's wire-order segments to segs. It runs once
// encoding is finished, because appends may have moved e.b.
func (e *encoder) segments(segs [][]byte) [][]byte {
	prev := 0
	for _, c := range e.cuts {
		segs = append(segs, e.b[prev:c.off], c.p)
		prev = c.off
	}
	return append(segs, e.b[prev:])
}

func (e *encoder) byte(v byte)      { e.b = append(e.b, v) }
func (e *encoder) uvarint(v uint64) { e.b = binary.AppendUvarint(e.b, v) }
func (e *encoder) varint(v int64)   { e.b = binary.AppendVarint(e.b, v) }
func (e *encoder) float(v float64)  { e.uvarint(bits.ReverseBytes64(math.Float64bits(v))) }

func (e *encoder) bool(v bool) {
	if v {
		e.byte(1)
	} else {
		e.byte(0)
	}
}

func (e *encoder) str(s string) {
	e.uvarint(uint64(len(s)))
	e.b = append(e.b, s...)
}

func (e *encoder) payload(p []byte) {
	e.uvarint(uint64(len(p)))
	if len(p) < inlineMax {
		e.b = append(e.b, p...)
		return
	}
	e.cuts = append(e.cuts, cut{len(e.b), p})
}

func (e *encoder) request(r *Request, top bool) error {
	if r.Kind == KindBatch && top {
		if msg := ValidateBatch(r); msg != "" {
			return fmt.Errorf("rpc: wire: encode: %s", msg)
		}
	} else if len(r.Subs) != 0 {
		return errNested
	}
	e.byte(byte(r.Kind))
	e.varint(r.DeadlineMicros)
	e.str(r.BlockID)
	e.payload(r.Data)
	e.uvarint(r.Offset)
	e.uvarint(r.Length)
	e.bool(r.CallerVerifies)
	e.str(r.Object)
	e.uvarint(r.Epoch)
	e.uvarint(uint64(r.Crc))
	e.chunkRef(&r.Chunk)
	e.varint(int64(r.Op))
	e.literal(&r.Value)
	e.payload(r.Bitmap)
	e.chunkRefs(r.KeyChunks)
	e.chunkRefs(r.ValChunks)
	e.uvarint(uint64(len(r.AggKinds)))
	for _, k := range r.AggKinds {
		e.varint(int64(k))
	}
	e.varint(int64(r.MaxGroups))
	e.varint(int64(r.K))
	e.bool(r.Desc)
	e.varint(int64(r.RG))
	e.uvarint(uint64(len(r.Subs)))
	for i := range r.Subs {
		if err := e.request(&r.Subs[i], false); err != nil {
			return err
		}
	}
	return nil
}

func (e *encoder) chunkRefs(refs []ChunkRef) {
	e.uvarint(uint64(len(refs)))
	for i := range refs {
		e.chunkRef(&refs[i])
	}
}

func (e *encoder) chunkRef(c *ChunkRef) {
	e.str(c.BlockID)
	e.uvarint(c.Offset)
	e.byte(byte(c.Type))
	m := &c.Meta
	e.uvarint(m.Offset)
	e.uvarint(m.Size)
	e.uvarint(m.RawSize)
	e.varint(int64(m.NumValues))
	e.byte(byte(m.Encoding))
	e.bool(m.Compressed)
	e.uvarint(uint64(m.CRC))
	s := &m.Stats
	e.bool(s.Valid)
	e.varint(s.MinI)
	e.varint(s.MaxI)
	e.float(s.MinF)
	e.float(s.MaxF)
	e.str(s.MinS)
	e.str(s.MaxS)
	e.uvarint(uint64(s.DistinctEst))
}

func (e *encoder) literal(l *sql.Literal) {
	e.varint(int64(l.Kind))
	e.varint(l.I)
	e.float(l.F)
	e.str(l.S)
}

func (e *encoder) aggState(a *sql.AggState) {
	e.varint(int64(a.Kind))
	e.varint(a.Count)
	e.float(a.Sum)
	e.bool(a.Init)
	e.float(a.MinF)
	e.float(a.MaxF)
	e.str(a.MinS)
	e.str(a.MaxS)
	e.bool(a.IsString)
}

func (e *encoder) response(r *Response, top bool) error {
	if len(r.Subs) > MaxBatchOps {
		return errBatchSize
	}
	if !top && len(r.Subs) != 0 {
		return errNested
	}
	e.str(r.Err)
	e.payload(r.Data)
	e.uvarint(r.Size)
	e.uvarint(uint64(r.Crc))
	e.uvarint(uint64(len(r.Blocks)))
	for i := range r.Blocks {
		e.blockInfo(&r.Blocks[i])
	}
	e.varint(int64(r.Matches))
	e.uvarint(uint64(len(r.Groups)))
	for i := range r.Groups {
		e.groupPartial(&r.Groups[i])
	}
	e.uvarint(uint64(len(r.TopRows)))
	for i := range r.TopRows {
		e.topRow(&r.TopRows[i])
	}
	e.uvarint(r.Cost.DiskBytes)
	e.uvarint(r.Cost.ProcBytes)
	e.uvarint(uint64(len(r.Subs)))
	for i := range r.Subs {
		if err := e.response(&r.Subs[i], false); err != nil {
			return err
		}
	}
	return nil
}

func (e *encoder) blockInfo(b *BlockInfo) {
	e.str(b.ID)
	e.str(b.Object)
	e.uvarint(b.Epoch)
	e.bool(b.Pending)
	e.bool(b.HasCrc)
	e.uvarint(uint64(b.Crc))
}

func (e *encoder) groupPartial(g *sql.GroupPartial) {
	e.uvarint(uint64(len(g.Key)))
	for i := range g.Key {
		e.literal(&g.Key[i])
	}
	e.varint(g.Rows)
	e.uvarint(uint64(len(g.Aggs)))
	for i := range g.Aggs {
		e.aggState(&g.Aggs[i])
	}
}

func (e *encoder) topRow(t *sql.TopRow) {
	e.literal(&t.Key)
	e.varint(int64(t.RG))
	e.varint(int64(t.Row))
}

// The smallest encoding of one slice element of each type — that of its
// zero value, every field's shortest form — which decoding divides the
// unread bytes by to bound a declared count before allocating for it.
var (
	minRequest      = zeroSize(func(e *encoder) { _ = e.request(&Request{}, false) })
	minResponse     = zeroSize(func(e *encoder) { _ = e.response(&Response{}, false) })
	minChunkRef     = zeroSize(func(e *encoder) { e.chunkRef(&ChunkRef{}) })
	minLiteral      = zeroSize(func(e *encoder) { e.literal(&sql.Literal{}) })
	minAggState     = zeroSize(func(e *encoder) { e.aggState(&sql.AggState{}) })
	minBlockInfo    = zeroSize(func(e *encoder) { e.blockInfo(&BlockInfo{}) })
	minGroupPartial = zeroSize(func(e *encoder) { e.groupPartial(&sql.GroupPartial{}) })
	minTopRow       = zeroSize(func(e *encoder) { e.topRow(&sql.TopRow{}) })
)

func zeroSize(encode func(*encoder)) int {
	var e encoder
	encode(&e)
	return len(e.b)
}

// decoder reads fields off the front of b. The first failure sticks: err is
// set, b is emptied, and every later read returns zero, so callers check
// once at the end — and count, which gates every allocation, returns 0.
type decoder struct {
	b   []byte
	err error
}

func (d *decoder) fail(err error) {
	if d.err == nil {
		d.err = err
	}
	d.b = nil
}

func (d *decoder) finish() error {
	if d.err == nil && len(d.b) != 0 {
		return errTrailing
	}
	return d.err
}

func (d *decoder) byte() byte {
	if len(d.b) == 0 {
		d.fail(errTruncated)
		return 0
	}
	v := d.b[0]
	d.b = d.b[1:]
	return v
}

func (d *decoder) bool() bool {
	v := d.byte()
	if v > 1 {
		d.fail(errBool)
	}
	return v == 1
}

func (d *decoder) uvarint() uint64 {
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		if n == 0 {
			d.fail(errTruncated)
		} else {
			d.fail(errVarint)
		}
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *decoder) varint() int64 {
	u := d.uvarint()
	return int64(u>>1) ^ -int64(u&1)
}

func (d *decoder) uint32() uint32 {
	v := d.uvarint()
	if v > math.MaxUint32 {
		d.fail(errRange)
	}
	return uint32(v)
}

func (d *decoder) int32() int32 {
	v := d.varint()
	if v != int64(int32(v)) {
		d.fail(errRange)
	}
	return int32(v)
}

func (d *decoder) int() int {
	v := d.varint()
	if v != int64(int(v)) {
		d.fail(errRange)
	}
	return int(v)
}

func (d *decoder) float() float64 {
	return math.Float64frombits(bits.ReverseBytes64(d.uvarint()))
}

// payload returns the next length-prefixed byte field as a sub-slice of the
// frame, its capacity clipped so an append by the holder cannot reach the
// bytes behind it.
func (d *decoder) payload() []byte {
	n := d.uvarint()
	if n > uint64(len(d.b)) {
		d.fail(errTruncated)
		return nil
	}
	if n == 0 {
		return nil
	}
	p := d.b[:n:n]
	d.b = d.b[n:]
	return p
}

func (d *decoder) str() string { return string(d.payload()) }

// count reads a slice length and rejects one that elemMin-byte elements
// could not fit in the unread bytes.
func (d *decoder) count(elemMin int) int {
	n := d.uvarint()
	if n > uint64(len(d.b)/elemMin) {
		d.fail(errCount)
		return 0
	}
	return int(n)
}

// subCount reads a Subs count: zero unless the message may carry Subs, and
// never above MaxBatchOps.
func (d *decoder) subCount(elemMin int, allowed bool) int {
	n := d.count(elemMin)
	switch {
	case n > 0 && !allowed:
		d.fail(errNested)
	case n > MaxBatchOps:
		d.fail(errBatchSize)
	default:
		return n
	}
	return 0
}

func (d *decoder) request(r *Request, top bool) {
	r.Kind = Kind(d.byte())
	r.DeadlineMicros = d.varint()
	r.BlockID = d.str()
	r.Data = d.payload()
	r.Offset = d.uvarint()
	r.Length = d.uvarint()
	r.CallerVerifies = d.bool()
	r.Object = d.str()
	r.Epoch = d.uvarint()
	r.Crc = d.uint32()
	d.chunkRef(&r.Chunk)
	r.Op = sql.CmpOp(d.int())
	d.literal(&r.Value)
	r.Bitmap = d.payload()
	r.KeyChunks = d.chunkRefs()
	r.ValChunks = d.chunkRefs()
	r.AggKinds = nil
	if n := d.count(1); n > 0 {
		r.AggKinds = make([]sql.AggKind, n)
		for i := range r.AggKinds {
			r.AggKinds[i] = sql.AggKind(d.int())
		}
	}
	r.MaxGroups = d.int()
	r.K = d.int()
	r.Desc = d.bool()
	r.RG = d.int32()
	r.Subs = nil
	batch := top && r.Kind == KindBatch
	if n := d.subCount(minRequest, batch); n > 0 {
		r.Subs = make([]Request, n)
		for i := range r.Subs {
			d.request(&r.Subs[i], false)
		}
	}
	if batch && d.err == nil {
		if msg := ValidateBatch(r); msg != "" {
			d.fail(fmt.Errorf("rpc: wire: %s", msg))
		}
	}
}

func (d *decoder) chunkRefs() []ChunkRef {
	n := d.count(minChunkRef)
	if n == 0 {
		return nil
	}
	refs := make([]ChunkRef, n)
	for i := range refs {
		d.chunkRef(&refs[i])
	}
	return refs
}

func (d *decoder) chunkRef(c *ChunkRef) {
	c.BlockID = d.str()
	c.Offset = d.uvarint()
	c.Type = lpq.Type(d.byte())
	m := &c.Meta
	m.Offset = d.uvarint()
	m.Size = d.uvarint()
	m.RawSize = d.uvarint()
	m.NumValues = d.int()
	m.Encoding = colenc.Encoding(d.byte())
	m.Compressed = d.bool()
	m.CRC = d.uint32()
	s := &m.Stats
	s.Valid = d.bool()
	s.MinI = d.varint()
	s.MaxI = d.varint()
	s.MinF = d.float()
	s.MaxF = d.float()
	s.MinS = d.str()
	s.MaxS = d.str()
	s.DistinctEst = d.uint32()
}

func (d *decoder) literal(l *sql.Literal) {
	l.Kind = sql.LitKind(d.int())
	l.I = d.varint()
	l.F = d.float()
	l.S = d.str()
}

func (d *decoder) aggState(a *sql.AggState) {
	a.Kind = sql.AggKind(d.int())
	a.Count = d.varint()
	a.Sum = d.float()
	a.Init = d.bool()
	a.MinF = d.float()
	a.MaxF = d.float()
	a.MinS = d.str()
	a.MaxS = d.str()
	a.IsString = d.bool()
}

func (d *decoder) response(r *Response, top bool) {
	r.Err = d.str()
	r.Data = d.payload()
	r.Size = d.uvarint()
	r.Crc = d.uint32()
	r.Blocks = nil
	if n := d.count(minBlockInfo); n > 0 {
		r.Blocks = make([]BlockInfo, n)
		for i := range r.Blocks {
			d.blockInfo(&r.Blocks[i])
		}
	}
	r.Matches = d.int()
	r.Groups = nil
	if n := d.count(minGroupPartial); n > 0 {
		r.Groups = make([]sql.GroupPartial, n)
		for i := range r.Groups {
			d.groupPartial(&r.Groups[i])
		}
	}
	r.TopRows = nil
	if n := d.count(minTopRow); n > 0 {
		r.TopRows = make([]sql.TopRow, n)
		for i := range r.TopRows {
			d.topRow(&r.TopRows[i])
		}
	}
	r.Cost.DiskBytes = d.uvarint()
	r.Cost.ProcBytes = d.uvarint()
	r.Subs = nil
	if n := d.subCount(minResponse, top); n > 0 {
		r.Subs = make([]Response, n)
		for i := range r.Subs {
			d.response(&r.Subs[i], false)
		}
	}
}

func (d *decoder) blockInfo(b *BlockInfo) {
	b.ID = d.str()
	b.Object = d.str()
	b.Epoch = d.uvarint()
	b.Pending = d.bool()
	b.HasCrc = d.bool()
	b.Crc = d.uint32()
}

func (d *decoder) groupPartial(g *sql.GroupPartial) {
	if n := d.count(minLiteral); n > 0 {
		g.Key = make([]sql.Literal, n)
		for i := range g.Key {
			d.literal(&g.Key[i])
		}
	}
	g.Rows = d.varint()
	if n := d.count(minAggState); n > 0 {
		g.Aggs = make([]sql.AggState, n)
		for i := range g.Aggs {
			d.aggState(&g.Aggs[i])
		}
	}
}

func (d *decoder) topRow(t *sql.TopRow) {
	d.literal(&t.Key)
	t.RG = d.int32()
	t.Row = d.int32()
}
