package series

import (
	"bufio"
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
)

// WriteCSV writes the series as CSV with a header line "t,value". Timestamps
// and values are formatted with full float64 round-trip precision so that
// ReadCSV(WriteCSV(s)) reproduces s exactly.
func (s *Series) WriteCSV(w io.Writer) error {
	bw := bufio.NewWriter(w)
	cw := csv.NewWriter(bw)
	if err := cw.Write([]string{"t", "value"}); err != nil {
		return err
	}
	rec := make([]string, 2)
	for _, p := range s.Points {
		rec[0] = strconv.FormatFloat(p.T, 'g', -1, 64)
		rec[1] = strconv.FormatFloat(p.V, 'g', -1, 64)
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		return err
	}
	return bw.Flush()
}

// ReadCSV parses a series written by WriteCSV. The header line is required.
func ReadCSV(r io.Reader, name string) (*Series, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = 2
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("series: reading CSV header: %w", err)
	}
	if header[0] != "t" || header[1] != "value" {
		return nil, fmt.Errorf("series: unexpected CSV header %v", header)
	}
	s := New(name, "")
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			return s, nil
		}
		if err != nil {
			return nil, fmt.Errorf("series: reading CSV: %w", err)
		}
		t, err := strconv.ParseFloat(rec[0], 64)
		if err != nil {
			return nil, fmt.Errorf("series: bad timestamp %q: %w", rec[0], err)
		}
		v, err := strconv.ParseFloat(rec[1], 64)
		if err != nil {
			return nil, fmt.Errorf("series: bad value %q: %w", rec[1], err)
		}
		if err := s.Append(t, v); err != nil {
			return nil, err
		}
	}
}
