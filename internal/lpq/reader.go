package lpq

import "fmt"

// File is a parsed lpq file backed by an in-memory byte slice.
type File struct {
	data   []byte
	footer *Footer
}

// Open parses the footer of an lpq file.
func Open(data []byte) (*File, error) {
	f, err := ParseFooter(data)
	if err != nil {
		return nil, err
	}
	return &File{data: data, footer: f}, nil
}

// ParseFooter extracts and decodes the footer of a complete lpq file. The
// Fusion coordinator calls this during Put to learn chunk boundaries without
// decoding any data (§5 "Storing Objects").
func ParseFooter(data []byte) (*Footer, error) {
	ml := len(Magic)
	if len(data) < 2*ml+4 || string(data[:ml]) != Magic {
		return nil, ErrFormat
	}
	return ParseFooterTail(data, uint64(len(data)))
}

// FooterSize returns the byte length of the footer region (footer bytes +
// length word + trailing magic) of a complete file, so callers can treat
// [data..footer) and footer separately.
func FooterSize(data []byte) (int, error) {
	return FooterSizeTail(data, uint64(len(data)))
}

// FooterSizeTail is FooterSize computed from only the trailing bytes of a
// file: tail holds the last len(tail) bytes of a size-byte lpq file. This is
// the streaming-Put entry point — the coordinator probes the tail of the
// source to learn the footer length without holding the body.
func FooterSizeTail(tail []byte, size uint64) (int, error) {
	ml := len(Magic)
	if size < uint64(2*ml+4) || len(tail) < ml+4 || uint64(len(tail)) > size {
		return 0, ErrFormat
	}
	if string(tail[len(tail)-ml:]) != Magic {
		return 0, ErrFormat
	}
	d := &decBuf{b: tail[len(tail)-ml-4 : len(tail)-ml]}
	flen := int(d.u32())
	if d.err != nil {
		return 0, d.err
	}
	total := flen + 4 + ml
	// The footer region must fit after the leading magic.
	if flen <= 0 || uint64(total) > size-uint64(ml) {
		return 0, ErrFormat
	}
	return total, nil
}

// ParseFooterTail decodes the footer given only the trailing bytes of a
// size-byte file, at least the whole footer region (FooterSizeTail). The
// leading magic is not visible here; streaming callers read it apart.
func ParseFooterTail(tail []byte, size uint64) (*Footer, error) {
	total, err := FooterSizeTail(tail, size)
	if err != nil {
		return nil, err
	}
	if total > len(tail) {
		return nil, fmt.Errorf("lpq: footer region is %d bytes, tail holds %d: %w", total, len(tail), ErrFormat)
	}
	ml := len(Magic)
	end := len(tail) - ml - 4
	flen := total - 4 - ml
	return DecodeFooter(tail[end-flen : end])
}

// Footer returns the parsed footer.
func (f *File) Footer() *Footer { return f.footer }

// Bytes returns the raw file contents.
func (f *File) Bytes() []byte { return f.data }

// ChunkBytes returns the raw on-disk bytes of chunk (rg, col).
func (f *File) ChunkBytes(rg, col int) ([]byte, error) {
	if rg < 0 || rg >= len(f.footer.RowGroups) {
		return nil, fmt.Errorf("lpq: row group %d out of range", rg)
	}
	chunks := f.footer.RowGroups[rg].Chunks
	if col < 0 || col >= len(chunks) {
		return nil, fmt.Errorf("lpq: column %d out of range", col)
	}
	m := chunks[col]
	if m.Offset+m.Size > uint64(len(f.data)) {
		return nil, ErrFormat
	}
	return f.data[m.Offset : m.Offset+m.Size], nil
}

// ReadChunk decodes chunk (rg, col) into column values.
func (f *File) ReadChunk(rg, col int) (ColumnData, error) {
	raw, err := f.ChunkBytes(rg, col)
	if err != nil {
		return ColumnData{}, err
	}
	m := f.footer.RowGroups[rg].Chunks[col]
	return DecodeChunk(f.footer.Columns[col].Type, m, raw)
}

// ReadColumn decodes a full column across all row groups.
func (f *File) ReadColumn(col int) (ColumnData, error) {
	var out ColumnData
	if col < 0 || col >= len(f.footer.Columns) {
		return out, fmt.Errorf("lpq: column %d out of range", col)
	}
	out.Type = f.footer.Columns[col].Type
	for rg := range f.footer.RowGroups {
		c, err := f.ReadChunk(rg, col)
		if err != nil {
			return ColumnData{}, err
		}
		out.Ints = append(out.Ints, c.Ints...)
		out.Floats = append(out.Floats, c.Floats...)
		out.Strings = append(out.Strings, c.Strings...)
	}
	return out, nil
}

// DecodeChunk decodes a self-contained chunk blob given its metadata into
// column values: OpenChunk, then Gather of every row. Query execution works on
// the opened chunk instead and never builds the full column; this is the form
// for callers that want all of it (whole-column reads, scrub's verification).
func DecodeChunk(t Type, m ChunkMeta, raw []byte) (ColumnData, error) {
	c, err := OpenChunk(t, m, raw)
	if err != nil {
		return ColumnData{}, err
	}
	defer c.Release()
	return c.Gather(nil)
}
