package experiments

import (
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// Series is one named curve for the ASCII plot.
type Series struct {
	// Name labels the curve in the legend.
	Name string
	// Marker is the character the curve is drawn with.
	Marker byte
	// Y holds one finite value per x position.
	Y []float64
}

// AsciiPlot renders line series against a shared x axis as a fixed-size
// character plot, in the spirit of the paper's gnuplot Figure 3.
func AsciiPlot(w io.Writer, title string, xs []float64, series []Series, width, height int) error {
	if width < 20 {
		width = 20
	}
	if height < 8 {
		height = 8
	}
	ymin, ymax := math.Inf(1), math.Inf(-1)
	for _, s := range series {
		for _, v := range s.Y {
			if v < ymin {
				ymin = v
			}
			if v > ymax {
				ymax = v
			}
		}
	}
	if math.IsInf(ymin, 1) {
		return fmt.Errorf("experiments: nothing to plot")
	}
	if ymax == ymin {
		ymax = ymin + 1
	}
	xmin, xmax := xs[0], xs[len(xs)-1]
	if xmax == xmin {
		xmax = xmin + 1
	}
	grid := make([][]byte, height)
	for r := range grid {
		grid[r] = []byte(strings.Repeat(" ", width))
	}
	for _, s := range series {
		var prevCol, prevRow int
		for i, v := range s.Y {
			if i >= len(xs) {
				break
			}
			col := int((xs[i] - xmin) / (xmax - xmin) * float64(width-1))
			row := height - 1 - int((v-ymin)/(ymax-ymin)*float64(height-1))
			grid[row][col] = s.Marker
			if i > 0 {
				// Sparse linear interpolation between sample points.
				steps := abs(col-prevCol) + abs(row-prevRow)
				for t := 1; t < steps; t++ {
					ic := prevCol + (col-prevCol)*t/steps
					ir := prevRow + (row-prevRow)*t/steps
					if grid[ir][ic] == ' ' {
						grid[ir][ic] = '.'
					}
				}
			}
			prevCol, prevRow = col, row
		}
	}
	if _, err := fmt.Fprintf(w, "%s\n", title); err != nil {
		return err
	}
	for r, line := range grid {
		label := strings.Repeat(" ", 10)
		switch r {
		case 0:
			label = fmt.Sprintf("%10s", trimFloat(ymax))
		case height - 1:
			label = fmt.Sprintf("%10s", trimFloat(ymin))
		}
		if _, err := fmt.Fprintf(w, "%s |%s\n", label, string(line)); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "%s +%s\n", strings.Repeat(" ", 10), strings.Repeat("-", width)); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%s  %-*s%s\n", strings.Repeat(" ", 10), width-len(trimFloat(xmax)), trimFloat(xmin), trimFloat(xmax)); err != nil {
		return err
	}
	var legend []string
	for _, s := range series {
		legend = append(legend, fmt.Sprintf("%c %s", s.Marker, s.Name))
	}
	_, err := fmt.Fprintf(w, "%s  legend: %s\n\n", strings.Repeat(" ", 10), strings.Join(legend, "   "))
	return err
}

func trimFloat(v float64) string {
	s := strconv.FormatFloat(v, 'g', 4, 64)
	return s
}

func abs(a int) int {
	if a < 0 {
		return -a
	}
	return a
}

// PlotFigure3 renders a Figure 3 table (from Figure3) as an ASCII plot with
// the paper's four series.
func PlotFigure3(w io.Writer, t *Table) error {
	var xs []float64
	var sync, async, fact, iters []float64
	for _, row := range t.Rows {
		x, err := strconv.ParseFloat(row[0], 64)
		if err != nil {
			return fmt.Errorf("experiments: bad overlap %q", row[0])
		}
		s, err1 := strconv.ParseFloat(row[1], 64)
		a, err2 := strconv.ParseFloat(row[2], 64)
		f, err3 := strconv.ParseFloat(row[3], 64)
		it, err4 := strconv.ParseFloat(row[4], 64)
		if err1 != nil || err2 != nil || err3 != nil || err4 != nil {
			continue // skip failed cells
		}
		xs = append(xs, x)
		sync = append(sync, s)
		async = append(async, a)
		fact = append(fact, f)
		iters = append(iters, it)
	}
	if len(xs) == 0 {
		return fmt.Errorf("experiments: no plottable rows")
	}
	return AsciiPlot(w, t.Title+" (times in virtual seconds, overlap on x)", xs, []Series{
		{Name: "synchronous", Marker: 's', Y: sync},
		{Name: "asynchronous", Marker: 'a', Y: async},
		{Name: "factorizing time", Marker: 'f', Y: fact},
		{Name: "iterations/100", Marker: 'i', Y: iters},
	}, 64, 20)
}
