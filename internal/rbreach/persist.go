package rbreach

// Oracle persistence: the condensation and landmark index are the paper's
// once-for-all offline artifacts; a production deployment computes them
// once per (graph, α) and serves queries from the persisted form.
//
// Layout (little endian): magic "RBQO", u32 version, u64 budget, the
// source graph's u64 |V|, u64 |E| and u32 CRC32C (see SourceOf), then two
// length-prefixed sections (condensation, index). Length prefixes isolate
// the sections so the sub-codecs' buffered readers cannot consume each
// other's bytes. Version 1 files had no version field and no source: the
// budget followed the magic, and since a budget is at least 4 its low word
// never reads as version 2, so they are refused.

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"

	"rbq/internal/compress"
	"rbq/internal/landmark"
)

var oracleMagic = [4]byte{'R', 'B', 'Q', 'O'}

const oracleVersion uint32 = 2

// oracleHeader is what follows the magic.
type oracleHeader struct {
	Version              uint32
	Budget, Nodes, Edges uint64
	CRC                  uint32
}

// oracleSectionLimit guards against corrupt headers allocating absurd
// buffers (1 GiB per section).
const oracleSectionLimit = 1 << 30

// SaveOracle writes the oracle's offline state (budget, source graph,
// condensation, index) to w.
func SaveOracle(w io.Writer, o *Oracle) error {
	if _, err := w.Write(oracleMagic[:]); err != nil {
		return err
	}
	h := oracleHeader{Version: oracleVersion, Budget: uint64(o.Budget),
		Nodes: uint64(o.Source.Nodes), Edges: uint64(o.Source.Edges), CRC: o.Source.CRC}
	if err := binary.Write(w, binary.LittleEndian, &h); err != nil {
		return err
	}
	writeSection := func(marshal func(io.Writer) error) error {
		var buf bytes.Buffer
		if err := marshal(&buf); err != nil {
			return err
		}
		if err := binary.Write(w, binary.LittleEndian, uint64(buf.Len())); err != nil {
			return err
		}
		_, err := w.Write(buf.Bytes())
		return err
	}
	if err := writeSection(o.Cond.Marshal); err != nil {
		return err
	}
	return writeSection(o.Index.Marshal)
}

// LoadOracle reads an oracle written by SaveOracle.
func LoadOracle(r io.Reader) (*Oracle, error) {
	var magic [4]byte
	if _, err := io.ReadFull(r, magic[:]); err != nil {
		return nil, fmt.Errorf("rbreach: reading magic: %w", err)
	}
	if magic != oracleMagic {
		return nil, fmt.Errorf("rbreach: bad magic %q", magic)
	}
	var h oracleHeader
	if err := binary.Read(r, binary.LittleEndian, &h); err != nil {
		return nil, fmt.Errorf("rbreach: reading header: %w", err)
	}
	if h.Version != oracleVersion {
		return nil, fmt.Errorf("rbreach: oracle file version %d, want %d: rebuild the index", h.Version, oracleVersion)
	}
	readSection := func(what string) ([]byte, error) {
		var n uint64
		if err := binary.Read(r, binary.LittleEndian, &n); err != nil {
			return nil, fmt.Errorf("rbreach: reading %s length: %w", what, err)
		}
		if n > oracleSectionLimit {
			return nil, fmt.Errorf("rbreach: absurd %s section of %d bytes", what, n)
		}
		buf := make([]byte, n)
		if _, err := io.ReadFull(r, buf); err != nil {
			return nil, fmt.Errorf("rbreach: reading %s section: %w", what, err)
		}
		return buf, nil
	}
	condBytes, err := readSection("condensation")
	if err != nil {
		return nil, err
	}
	cond, err := compress.UnmarshalCondensation(bytes.NewReader(condBytes))
	if err != nil {
		return nil, err
	}
	idxBytes, err := readSection("index")
	if err != nil {
		return nil, err
	}
	idx, err := landmark.UnmarshalIndex(bytes.NewReader(idxBytes), cond.DAG)
	if err != nil {
		return nil, err
	}
	return &Oracle{Cond: cond, Index: idx, Budget: int(h.Budget),
		Source: Source{Nodes: int(h.Nodes), Edges: int(h.Edges), CRC: h.CRC}}, nil
}
