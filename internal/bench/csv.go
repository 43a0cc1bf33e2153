package bench

import (
	"encoding/csv"
	"fmt"
	"io"
	"reflect"

	"simtmp/internal/stats"
)

// WriteCSV renders any experiment's row slice as CSV: the header comes
// from the struct field names, cells from the field values, with each
// stats.Summary expanded as walkFields does. rows must be a slice of
// structs.
func WriteCSV(w io.Writer, rows any) error {
	v := reflect.ValueOf(rows)
	if v.Kind() != reflect.Slice {
		return fmt.Errorf("bench: WriteCSV wants a slice, got %T", rows)
	}
	cw := csv.NewWriter(w)
	defer cw.Flush()

	if v.Len() == 0 {
		return nil
	}
	if k := v.Type().Elem().Kind(); k != reflect.Struct {
		return fmt.Errorf("bench: WriteCSV wants structs, got %s", k)
	}

	var header []string
	walkFields(v.Index(0), func(name string, _ reflect.Value) { header = append(header, name) })
	if err := cw.Write(header); err != nil {
		return err
	}
	for i := 0; i < v.Len(); i++ {
		var cells []string
		walkFields(v.Index(i), func(_ string, f reflect.Value) {
			cells = append(cells, fmt.Sprint(f.Interface()))
		})
		if err := cw.Write(cells); err != nil {
			return err
		}
	}
	return nil
}

// summaryType is the expanded distribution field type.
var summaryType = reflect.TypeOf(stats.Summary{})

// summaryCols are the Summary sub-columns exported to CSV.
var summaryCols = []string{"min", "p25", "median", "mean", "p75", "p95", "p99", "max"}

// walkFields calls fn with the name and value of each column of a
// struct row: its exported fields in order, each stats.Summary expanded
// into one <field>_<col> column per summaryCols entry. It names the
// CSV columns and the §IV records alike.
func walkFields(row reflect.Value, fn func(name string, v reflect.Value)) {
	t := row.Type()
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		if !f.IsExported() {
			continue
		}
		if f.Type != summaryType {
			fn(f.Name, row.Field(i))
			continue
		}
		s := row.Field(i).Interface().(stats.Summary)
		for j, x := range []float64{s.Min, s.P25, s.Median, s.Mean, s.P75, s.P95, s.P99, s.Max} {
			fn(f.Name+"_"+summaryCols[j], reflect.ValueOf(x))
		}
	}
}
