package archtest

// mpi is the reason an MPI or SMPI call stays exported with no caller in
// this module: it is part of the API an unmodified application programs
// against (paper Sec. 3.1), and the collectives among them are pinned by
// internal/smpi/testdata/variants.golden.
const mpi = "MPI/SMPI call an application makes (paper Sec. 3.1)"

// exemptions lists the exported names under internal/ that stay exported
// without a non-test caller outside their package, each with its reason.
// An entry that no longer applies fails the test: the list only shrinks.
var exemptions = map[string]string{
	"smpi.AnySource":         mpi,
	"smpi.AnyTag":            mpi,
	"smpi.Byte":              mpi,
	"smpi.Int32":             mpi,
	"smpi.Float32":           mpi,
	"smpi.OpProd":            mpi,
	"smpi.OpMax":             mpi,
	"smpi.OpMin":             mpi,
	"smpi.OpBAnd":            mpi,
	"smpi.OpLAnd":            mpi,
	"smpi.OpLOr":             mpi,
	"smpi.Comm.Allgather":    mpi,
	"smpi.Comm.Gather":       mpi,
	"smpi.Comm.Scatterv":     mpi,
	"smpi.Comm.Gatherv":      mpi,
	"smpi.Comm.Allgatherv":   mpi,
	"smpi.Comm.Alltoallv":    mpi,
	"smpi.Rank.Sendrecv":     mpi,
	"smpi.Rank.Test":         mpi,
	"smpi.Rank.WaitAny":      mpi,
	"smpi.Rank.WaitSome":     mpi,
	"smpi.Rank.SampleGlobal": mpi,
	"smpi.Rank.SampleFlops":  mpi,

	"nas.ClassS": "NPB class: smpirun -class S reaches it by conversion, not by name",
	"nas.ClassW": "NPB class: smpirun -class W reaches it by conversion, not by name",

	"lmm.CheckAfterSolve": "test hook: the surf, dynamics and experiments suites set it from TestMain",

	"platform/platformtest.New":           "test fixture: only tests build platforms with it",
	"platform/platformtest.Fixture":       "test fixture: only tests build platforms with it",
	"platform/platformtest.Fixture.Link":  "test fixture: only tests build platforms with it",
	"platform/platformtest.Fixture.Route": "test fixture: only tests build platforms with it",
}

// fieldExemptions lists the exported struct fields under internal/ that
// stay although no non-test file sets or reads them, each with its reason.
// An entry that no longer applies fails the test: the list only shrinks.
var fieldExemptions = map[string]string{
	"smpi.Status.Source": mpi,
	"smpi.Status.Tag":    mpi,
	"smpi.Status.Count":  mpi,

	"nas.EPResult.SumX":          "NPB EP verification output: the nas tests check it",
	"nas.EPResult.SumY":          "NPB EP verification output: the nas tests check it",
	"nas.EPResult.PairsInCircle": "NPB EP verification output: the nas tests check it",

	"nas.EPConfig.Global": "SMPI_SAMPLE_GLOBAL sampling of EP: TestEPGlobalSampling runs it",
}

// funcExemptions lists the unexported functions and methods under internal/
// that stay although no non-test file calls them, each with its reason. An
// entry that no longer applies fails the test: the list only shrinks.
var funcExemptions = map[string]string{
	"lmm.System.solveFull": "reference solver: FuzzIncrementalMatchesFromScratch compares every incremental solve with it",
}
