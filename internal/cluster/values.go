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

// DecodePlain parses a projection reply. The values own their memory (strings
// share one allocation), never aliasing data.
func DecodePlain(data []byte) (lpq.ColumnData, error) {
	if len(data) < 1 {
		return lpq.ColumnData{}, fmt.Errorf("cluster: empty value payload")
	}
	t := lpq.Type(data[0])
	count, n := binary.Uvarint(data[1:])
	if n <= 0 {
		return lpq.ColumnData{}, fmt.Errorf("cluster: bad value count")
	}
	body := data[1+n:]
	out := lpq.ColumnData{Type: t}
	var err error
	switch t {
	case lpq.Int64:
		out.Ints, err = colenc.GetInt64s(body, int(count))
	case lpq.Float64:
		out.Floats, err = colenc.GetFloat64s(body, int(count))
	case lpq.String:
		out.Strings, err = colenc.GetStrings(body, int(count))
	default:
		return lpq.ColumnData{}, fmt.Errorf("cluster: unknown value type %d", t)
	}
	return out, err
}

// AppendColumn concatenates src's values onto dst (same type).
func AppendColumn(dst *lpq.ColumnData, src lpq.ColumnData) error {
	if dst.Len() == 0 && dst.Ints == nil && dst.Floats == nil && dst.Strings == nil {
		dst.Type = src.Type
	}
	if dst.Type != src.Type {
		return fmt.Errorf("cluster: cannot append %v values to %v column", src.Type, dst.Type)
	}
	dst.Ints = append(dst.Ints, src.Ints...)
	dst.Floats = append(dst.Floats, src.Floats...)
	dst.Strings = append(dst.Strings, src.Strings...)
	return nil
}
