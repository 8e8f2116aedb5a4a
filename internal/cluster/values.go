package cluster

import (
	"encoding/binary"
	"fmt"

	"github.com/fusionstore/fusion/internal/colenc"
	"github.com/fusionstore/fusion/internal/lpq"
)

// A projection reply carries the selected values in plain (uncompressed)
// form: [type byte][uvarint count][plain values]. Projection results cross
// the network uncompressed, which is exactly the asymmetry the pushdown cost
// model reasons about (§4.3). handleProject writes the form straight from the
// opened chunk (appendPlainHeader, then lpq.Chunk.AppendSelected); DecodePlain
// reads it.

// appendPlainHeader appends the type byte and value count that open a
// projection reply.
func appendPlainHeader(dst []byte, t lpq.Type, count int) []byte {
	return binary.AppendUvarint(append(dst, byte(t)), uint64(count))
}

// DecodePlain parses a projection reply and appends its values to dst, a
// column of the reply's type — the counterpart of lpq.Chunk.AppendGather for
// a chunk a node gathered: handed a zero-length, capacity-clipped window of a
// result column, it decodes straight into the window. A reply of another type
// is an error; how many values it holds is for the caller to compare with what
// it asked for (dst's length afterwards). The values own their memory (the
// strings of one reply share one allocation), never aliasing data. On error
// dst comes back as it went in.
func DecodePlain(dst lpq.ColumnData, data []byte) (lpq.ColumnData, error) {
	if len(data) < 1 {
		return dst, fmt.Errorf("cluster: empty value payload")
	}
	switch t := lpq.Type(data[0]); {
	case t > lpq.String:
		return dst, fmt.Errorf("cluster: unknown value type %d", t)
	case t != dst.Type:
		return dst, fmt.Errorf("cluster: %v values for a %v column", t, dst.Type)
	}
	count, n := binary.Uvarint(data[1:])
	if n <= 0 {
		return dst, fmt.Errorf("cluster: bad value count")
	}
	body := data[1+n:]
	var err error // a count past the int range is negative below: corrupt
	switch dst.Type {
	case lpq.Int64:
		dst.Ints, err = colenc.AppendInt64s(dst.Ints, body, int(count))
	case lpq.Float64:
		dst.Floats, err = colenc.AppendFloat64s(dst.Floats, body, int(count))
	default:
		dst.Strings, err = colenc.AppendStrings(dst.Strings, body, int(count))
	}
	return dst, err
}
