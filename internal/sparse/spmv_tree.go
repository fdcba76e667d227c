package sparse

import (
	"fmt"

	"capscale/internal/hw"
	"capscale/internal/sim"
	"capscale/internal/task"
)

// Format selects a storage scheme for the SpMV study.
type Format int

const (
	// FormatCSR is compressed sparse row.
	FormatCSR Format = iota
	// FormatCOO is coordinate storage with scatter accumulation.
	FormatCOO
	// FormatELL is ELLPACK with padding to the widest row.
	FormatELL
)

var formatNames = [...]string{"CSR", "COO", "ELL"}

func (f Format) String() string {
	if f < 0 || int(f) >= len(formatNames) {
		return fmt.Sprintf("Format(%d)", int(f))
	}
	return formatNames[f]
}

// Formats lists the storage schemes under study.
func Formats() []Format { return []Format{FormatCSR, FormatCOO, FormatELL} }

// Options configures SpMV tree construction.
type Options struct {
	// Workers is the thread count rows are partitioned over.
	Workers int
	// Iterations repeats y = A·x, as an iterative solver's inner loop
	// does; power averages over a realistic duration.
	Iterations int
	// WithMath attaches real kernels (x and y buffers are allocated
	// internally; Y returns the result).
	WithMath bool
}

// SpMV holds a built SpMV task tree and, when math is attached, its
// vectors.
type SpMV struct {
	Root *task.Node
	X, Y []float64
}

// BuildSpMV constructs the row-partitioned parallel SpMV tree for the
// matrix in the given storage format. Traffic accounting per format:
//
//   - CSR streams nnz·(8+4) bytes of values+indices plus row pointers;
//   - COO streams nnz·(8+4+4) and pays read+write scatter accumulation
//     on y instead of one streaming write;
//   - ELL streams width·rows·(8+4) including padding, and its
//     vectorized kernel spends multiply slots on the padding too.
//
// All formats gather x irregularly: that traffic lands in L3 or DRAM
// depending on whether x fits the workers' cache share.
func BuildSpMV(m *hw.Machine, a *CSR, format Format, opt Options) *SpMV {
	if opt.Workers < 1 {
		panic(fmt.Sprintf("sparse: workers %d", opt.Workers))
	}
	iters := opt.Iterations
	if iters < 1 {
		iters = 1
	}

	out := &SpMV{}
	var coo *COO
	var ell *ELL
	switch format {
	case FormatCOO:
		coo = a.ToCOO()
	case FormatELL:
		ell = a.ToELL()
	case FormatCSR:
	default:
		panic(fmt.Sprintf("sparse: unknown format %v", format))
	}
	if opt.WithMath {
		out.X = make([]float64, a.ColsN)
		for i := range out.X {
			out.X[i] = 1 / float64(i+1)
		}
		out.Y = make([]float64, a.RowsN)
	}

	// Row chunks balanced by nnz, one chain per worker.
	bounds := nnzBalancedBounds(a, opt.Workers)
	var ar task.Arena
	yRegion := make([]task.RegionID, opt.Workers)
	for i := range yRegion {
		yRegion[i] = ar.New()
	}
	xLevel := m.LevelFor(8*float64(a.ColsN), opt.Workers)

	iterNodes := make([]task.Ref, 0, iters)
	for it := 0; it < iters; it++ {
		chains := make([]task.Ref, 0, opt.Workers)
		for w := 0; w < opt.Workers; w++ {
			lo, hi := bounds[w], bounds[w+1]
			if lo == hi {
				continue
			}
			leafWork := chunkWork(m, a, ell, format, lo, hi, xLevel, yRegion[w])
			leafWork.Label = fmt.Sprintf("spmv %v it%d rows[%d,%d)", format, it, lo, hi)
			if opt.WithMath {
				leafWork.Run = chunkRun(a, coo, ell, format, out, lo, hi)
			}
			chains = append(chains, ar.WithAffinityMask(ar.Leaf(leafWork), task.SingleWorker(w)))
		}
		iterNodes = append(iterNodes, ar.Par(chains...))
	}
	out.Root = ar.Node(ar.Seq(iterNodes...))
	return out
}

// nnzBalancedBounds splits rows into `workers` chunks of roughly equal
// non-zero counts (the partition a tuned SpMV uses for skewed rows).
func nnzBalancedBounds(a *CSR, workers int) []int {
	bounds := make([]int, workers+1)
	total := a.NNZ()
	r := 0
	for w := 1; w < workers; w++ {
		targetCum := total * w / workers
		for r < a.RowsN && int(a.RowPtr[r+1]) < targetCum {
			r++
		}
		bounds[w] = r
	}
	bounds[workers] = a.RowsN
	return bounds
}

func chunkWork(m *hw.Machine, a *CSR, ell *ELL, format Format, lo, hi int, xLevel hw.TrafficLevel, yReg task.RegionID) task.Work {
	rows := float64(hi - lo)
	nnz := float64(a.RowPtr[hi] - a.RowPtr[lo])

	w := task.Work{
		Kind:        task.KindAdd, // bandwidth-bound kernel class
		Writes:      []task.RegionID{yReg},
		RegionBytes: 8 * rows,
	}
	var stream, yBytes, flops, xBytes float64
	switch format {
	case FormatCSR:
		stream = nnz*(8+4) + 4*rows
		yBytes = 8 * rows
		flops = 2 * nnz
	case FormatCOO:
		stream = nnz * (8 + 4 + 4)
		yBytes = 2 * 8 * nnz // read-modify-write accumulation per entry
		flops = 2 * nnz
	case FormatELL:
		width := float64(ell.Width)
		stream = width * rows * (8 + 4)
		yBytes = 8 * rows
		flops = 2 * width * rows // vectorized kernel computes padding
	}
	xBytes = 8 * nnz
	w.Flops = flops
	w.DRAMBytes = stream + yBytes
	if xLevel == hw.LevelDRAM {
		w.DRAMBytes += xBytes
	} else {
		w.L3Bytes = xBytes
	}
	return w
}

func chunkRun(a *CSR, coo *COO, ell *ELL, format Format, out *SpMV, lo, hi int) func() {
	switch format {
	case FormatCSR:
		return func() { a.MulVecRows(out.Y, out.X, lo, hi) }
	case FormatCOO:
		return func() {
			// Row-major sorted COO: entries of rows [lo,hi) form one
			// contiguous range.
			for i := lo; i < hi; i++ {
				out.Y[i] = 0
			}
			for k := range coo.V {
				r := int(coo.I[k])
				if r >= lo && r < hi {
					out.Y[r] += coo.V[k] * out.X[coo.J[k]]
				}
			}
		}
	default: // FormatELL
		return func() {
			for r := lo; r < hi; r++ {
				base := r * ell.Width
				sum := 0.0
				for k := 0; k < ell.Width; k++ {
					if c := ell.Col[base+k]; c >= 0 {
						sum += ell.V[base+k] * out.X[c]
					}
				}
				out.Y[r] = sum
			}
		}
	}
}

// StudyPoint is one cell of the storage-format energy study.
type StudyPoint struct {
	Format  Format
	Threads int
	Seconds float64
	Watts   float64
	EP      float64 // Eq. 1: watts / seconds
	BytesMB float64 // total traffic charged
}

// EnergyStudy runs every storage format across the thread counts on
// the simulated machine and returns the Eq. 1 figures — the sparse
// analogue of the paper's dense comparison.
func EnergyStudy(m *hw.Machine, a *COO, threads []int, iterations int) []StudyPoint {
	csr := a.ToCSR()
	var out []StudyPoint
	for _, f := range Formats() {
		for _, p := range threads {
			spmv := BuildSpMV(m, csr, f, Options{Workers: p, Iterations: iterations})
			res := sim.Run(m, spmv.Root, sim.Config{Workers: p})
			stats := task.Collect(spmv.Root)
			out = append(out, StudyPoint{
				Format:  f,
				Threads: p,
				Seconds: res.Makespan,
				Watts:   res.AvgPowerTotal(),
				EP:      res.AvgPowerTotal() / res.Makespan,
				BytesMB: (stats.DRAMBytes + stats.L3Bytes) / 1e6,
			})
		}
	}
	return out
}

// bytesPerNNZ is exported for analysis: the storage traffic each
// format moves per non-zero (CSR 12, COO 16 plus y scatter, ELL
// 12/(1−waste) effective).
func BytesPerNNZ(f Format, a *CSR) float64 {
	switch f {
	case FormatCSR:
		return 12 + 4*float64(a.RowsN)/float64(a.NNZ())
	case FormatCOO:
		return 16
	case FormatELL:
		ell := a.ToELL()
		return 12 * float64(ell.RowsN*ell.Width) / float64(a.NNZ())
	default:
		panic(fmt.Sprintf("sparse: unknown format %v", f))
	}
}
