package rpc

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"math/bits"

	"github.com/fusionstore/fusion/internal/bufpool"
	"github.com/fusionstore/fusion/internal/colenc"
	"github.com/fusionstore/fusion/internal/lpq"
	"github.com/fusionstore/fusion/internal/sql"
)

// Wire format. A message is a header, its fields in declaration order,
// nested structs and slice elements inline, with no type descriptors and no
// field tags, followed by its payload region:
//
//	unsigned integers   uvarint
//	signed integers     zigzag varint
//	float64             uvarint of the byte-reversed IEEE bits (0, and
//	                    values with few mantissa bits, take 1–3 bytes)
//	bool, Kind          one byte (a bool is exactly 0 or 1)
//	string              uvarint length, then the bytes
//	payload             uvarint length, then — below inlineMax — the bytes
//	slice               uvarint count, then the elements
//
// Subs are encoded by the same functions one level deep: a sub-message
// carries a zero Subs count. An empty slice decodes as nil.
//
// Payload fields (Request.Data, Request.Bitmap, Response.Data) are the bulk
// of the traffic and are never copied on either side. A payload of inlineMax
// bytes or more is not in the header: the header gives its length, and its
// bytes follow the header, in the order the header names them, as the
// payload region. Encoding returns the header and those
// payloads as the segments of one vectored write. Decoding a whole message
// (DecodeRequest, DecodeResponse) returns payloads as capacity-clipped
// sub-slices of its buffer, which must therefore outlive the decoded
// message. ReadResponse decodes a header alone and then reads each payload of
// the region off the connection to where it belongs: into the caller's
// windows (Request.LandIn), or into one rented buffer.
//
// Every length and count is checked against the bytes still unread before
// anything is allocated (a count against the smallest encoding of that many
// elements, a payload length against the region), so a decode allocates in
// proportion to the frame it was given whatever the frame declares. FuzzFrame
// pins that.

// inlineMax is the payload size from which a payload moves from the header to
// the payload region: below it the copy into the header, and out of it, is
// cheaper than one more entry in the write vector and one more read.
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
	errRegion    = errors.New("rpc: wire: payload region is not the length the header declares")
)

// AppendRequest appends r's header to dst and returns the extended buffer
// together with the message's wire-order segments appended to segs: the
// buffer (dst's existing bytes lead it, so a caller's prefix goes out with
// it), then the payloads of r's region, which alias r. A malformed batch
// (ValidateBatch) or Subs anywhere but on a top-level KindBatch request is an
// error.
func AppendRequest(dst []byte, segs [][]byte, r *Request) ([]byte, [][]byte, error) {
	var scratch [4][]byte
	e := encoder{b: dst, region: scratch[:0]}
	if err := e.request(r, true); err != nil {
		return dst, segs, err
	}
	return e.b, append(append(segs, e.b), e.region...), nil
}

// AppendResponse is AppendRequest for a response. More than MaxBatchOps
// sub-responses, or a sub-response with Subs of its own, is an error.
func AppendResponse(dst []byte, segs [][]byte, r *Response) ([]byte, [][]byte, error) {
	var scratch [4][]byte
	e := encoder{b: dst, region: scratch[:0]}
	if err := e.response(r, true); err != nil {
		return dst, segs, err
	}
	return e.b, append(append(segs, e.b), e.region...), nil
}

// DecodeRequest decodes one request occupying all of b, header and payload
// region, into r, overwriting every field. r.Data and r.Bitmap (and those of
// r.Subs) alias b.
func DecodeRequest(b []byte, r *Request) error {
	d := decoder{b: b}
	d.request(r, true)
	region, err := d.takeRegion()
	for _, p := range d.region {
		m := r
		if p.sub > 0 {
			m = &r.Subs[p.sub-1]
		}
		if p.bitmap {
			m.Bitmap = p.of(region)
		} else {
			m.Data = p.of(region)
		}
	}
	return err
}

// DecodeResponse decodes one response occupying all of b, header and payload
// region, into r, overwriting every field. r.Data (and that of r.Subs)
// aliases b.
func DecodeResponse(b []byte, r *Response) error {
	d := decoder{b: b}
	d.response(r, true, nil)
	r.frame, r.tail = nil, nil
	region, err := d.takeRegion()
	for _, p := range d.region {
		r.sub(p.sub).Data = p.of(region)
	}
	return err
}

// ReadResponse decodes the response to req whose header is head into r and
// reads the payload region the header declares, size bytes, from rd. A
// GetBlock payload lands in its request's windows (Request.LandIn) when it
// can; every other payload of the region is read into one buffer rented from
// bufpool as its bytes arrive (ahead bounds the rental before they do). head
// must be a bufpool buffer: on success r owns it and that buffer, which r's
// payloads alias, and Release returns both. On failure head stays the
// caller's, and windows may hold part of a payload.
func ReadResponse(rd io.Reader, head []byte, size, ahead int, req *Request, r *Response) error {
	d := decoder{b: head, header: true, size: size}
	d.response(r, true, req)
	if err := d.finish(); err != nil {
		return err
	}
	if d.regionLen != size {
		return errRegion
	}
	var tail []byte
	for i := range d.region {
		p := &d.region[i]
		if p.land != nil {
			for _, w := range p.land {
				if _, err := io.ReadFull(rd, w); err != nil {
					bufpool.Put(tail)
					return err
				}
			}
			r.sub(p.sub).landed = p.land
			continue
		}
		p.off = len(tail)
		var err error
		if tail, err = bufpool.ReadAppend(rd, tail, p.n, ahead); err != nil {
			return err
		}
	}
	// tail may have moved as it grew: the views are taken once it is whole.
	for _, p := range d.region {
		if p.land == nil {
			r.sub(p.sub).Data = p.of(tail)
		}
	}
	r.frame, r.tail = head, tail
	return nil
}

// sub returns sub-message i-1 of r, or r itself for i = 0.
func (r *Response) sub(i int) *Response {
	if i > 0 {
		return &r.Subs[i-1]
	}
	return r
}

type encoder struct {
	b      []byte
	region [][]byte // the payloads left out of b, in wire order
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
	e.region = append(e.region, p)
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

// decoder reads a header's fields off the front of b. The first failure
// sticks: err is set, b is emptied, and every later read returns zero, so
// callers check once at the end — and count, which gates every allocation,
// returns 0.
//
// A payload in the region is not read where the header names it: it is
// pending until the header is decoded, and then taken from the rest of a
// whole message (takeRegion) or read off a connection (ReadResponse). A
// pending payload names its field by position, not by pointer, so the
// message being decoded does not escape to the heap with the list.
type decoder struct {
	b   []byte
	err error
	// header is set when b is a header alone, whose payload region, size
	// bytes, is elsewhere; a whole message's region is at the end of b.
	header    bool
	size      int
	sub       int // 1 + the index of the sub-message being decoded; 0: the message itself
	subs      int // how many sub-messages there are: the region's first allocation holds a payload each
	region    []pending
	regionLen int
}

// pending is one payload of the region: the field it fills — Data, or a
// request's Bitmap, of the message or of sub-message sub-1 — its length and
// its offset in the buffer it is read into, and, when it lands, the caller's
// windows.
type pending struct {
	sub    int
	bitmap bool
	n, off int
	land   [][]byte
}

// of returns the payload's bytes in buf, capacity-clipped.
func (p pending) of(buf []byte) []byte { return buf[p.off : p.off+p.n : p.off+p.n] }

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

// takeRegion ends the decode of a whole message: what follows the header is
// the payload region, which must hold exactly the pending payloads, and each
// is given its offset in it. On failure the region is nil and so is the list.
func (d *decoder) takeRegion() ([]byte, error) {
	if d.err == nil && len(d.b) != d.regionLen {
		d.fail(errRegion)
	}
	if d.err != nil {
		d.region = nil
		return nil, d.err
	}
	off := 0
	for i := range d.region {
		d.region[i].off = off
		off += d.region[i].n
	}
	region := d.b
	d.b = nil
	return region, nil
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

// bytes returns the next length-prefixed byte field of the header as a
// sub-slice of it, its capacity clipped so an append by the holder cannot
// reach the bytes behind it.
func (d *decoder) bytes() []byte { return d.inline(d.uvarint()) }

// inline returns the next n bytes of the header (see bytes).
func (d *decoder) inline(n uint64) []byte {
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

func (d *decoder) str() string { return string(d.bytes()) }

// payload decodes a payload field: at once when the header holds it, and
// else as a pending payload of the region (see decoder), for which it
// returns nil. bitmap says which field it is (a request's Bitmap, or Data). A
// region payload of exactly the bytes land's windows hold lands in them
// (ReadResponse; a whole message's decode passes no windows).
func (d *decoder) payload(bitmap bool, land [][]byte) []byte {
	n := d.uvarint()
	if n < inlineMax {
		return d.inline(n)
	}
	// A whole message's region is in b, behind the rest of the header.
	room := len(d.b)
	if d.header {
		room = d.size
	}
	if room -= d.regionLen; room < 0 || n > uint64(room) {
		d.fail(errRegion)
		return nil
	}
	p := pending{sub: d.sub, bitmap: bitmap, n: int(n)}
	if windowsLen(land) == p.n {
		p.land = land
	}
	if d.region == nil {
		d.region = make([]pending, 0, max(d.subs, 1))
	}
	d.region = append(d.region, p)
	d.regionLen += p.n
	return nil
}

// windowsLen is the bytes windows hold.
func windowsLen(windows [][]byte) int {
	n := 0
	for _, w := range windows {
		n += len(w)
	}
	return n
}

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
	r.Data = d.payload(false, nil)
	r.Offset = d.uvarint()
	r.Length = d.uvarint()
	r.CallerVerifies = d.bool()
	r.Object = d.str()
	r.Epoch = d.uvarint()
	r.Crc = d.uint32()
	d.chunkRef(&r.Chunk)
	r.Op = sql.CmpOp(d.int())
	d.literal(&r.Value)
	r.Bitmap = d.payload(true, nil)
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
			d.sub = i + 1
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

// response decodes a response; q is the request it answers, when its
// payload may land (ReadResponse), else nil.
func (d *decoder) response(r *Response, top bool, q *Request) {
	r.Err = d.str()
	var land [][]byte
	if q != nil && q.Kind == KindGetBlock && r.Err == "" {
		land = q.land
	}
	r.Data, r.landed = d.payload(false, land), nil
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
		d.subs = n
		// Sub-response i answers sub-request i of a batch of as many.
		batch := q != nil && q.Kind == KindBatch && len(q.Subs) == n
		for i := range r.Subs {
			var sq *Request
			if batch {
				sq = &q.Subs[i]
			}
			d.sub = i + 1
			d.response(&r.Subs[i], false, sq)
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
