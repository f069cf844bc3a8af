// Package aspen is a pure-Go reproduction of "ASPEN: A Scalable In-SRAM
// Architecture for Pushdown Automata" (MICRO 2018): homogeneous
// deterministic pushdown automata (hDPDA), an optimizing compiler from
// LR(1) grammars to hDPDAs with the paper's ε-merging and multipop
// optimizations, a cycle-level simulator of the in-cache five-stage
// datapath with the paper's timing and energy model, an NFA-based lexing
// substrate, and the two evaluation applications: XML parsing (SAXCount)
// and frequent subtree mining.
//
// The package re-exports the user-facing surface of the internal
// implementation packages. Typical use:
//
//	g, _ := aspen.ParseGrammar(grammarText)
//	cm, _ := aspen.CompileGrammar(g, aspen.OptAll)
//	sim, _ := aspen.NewSim(cm.Machine, aspen.DefaultArchConfig())
//	stats, _ := sim.Run(tokens, aspen.ExecOptions{})
package aspen

import (
	"aspen/internal/arch"
	"aspen/internal/compile"
	"aspen/internal/core"
	"aspen/internal/dom"
	"aspen/internal/grammar"
	"aspen/internal/lang"
	"aspen/internal/lexer"
	"aspen/internal/mnrl"
	"aspen/internal/nfa"
	"aspen/internal/place"
	"aspen/internal/serve"
	"aspen/internal/stream"
	"aspen/internal/subtree"
	"aspen/internal/swparse"
	"aspen/internal/telemetry"
	"aspen/internal/treegen"
	"aspen/internal/xmlgen"
)

// Core automata model.
type (
	// Symbol is an 8-bit input or stack symbol.
	Symbol = core.Symbol
	// SymbolSet is a 256-bit symbol set (one SRAM match column).
	SymbolSet = core.SymbolSet
	// HDPDA is a homogeneous deterministic pushdown automaton.
	HDPDA = core.HDPDA
	// State is one hDPDA state.
	State = core.State
	// StackOp is a state's stack action (pop count + optional push).
	StackOp = core.StackOp
	// StateID indexes states within an HDPDA.
	StateID = core.StateID
	// DPDA is a classical (non-homogeneous) deterministic PDA.
	DPDA = core.DPDA
	// ExecOptions configures machine execution.
	ExecOptions = core.ExecOptions
	// Result summarizes one machine run.
	Result = core.Result
	// ReportEvent is an accept-state activation.
	ReportEvent = core.Report
	// Execution is a stepwise machine run.
	Execution = core.Execution
)

// BottomOfStack is the reserved ⊥ stack symbol.
const BottomOfStack = core.BottomOfStack

// NewSymbolSet builds a set from symbols; AllSymbols is the wildcard.
var (
	NewSymbolSet = core.NewSymbolSet
	AllSymbols   = core.AllSymbols
	SymbolRange  = core.SymbolRange
	// BytesToSymbols converts raw bytes to machine input.
	BytesToSymbols = core.BytesToSymbols
	// NewExecution begins a stepwise run.
	NewExecution = core.NewExecution
	// PalindromeDPDA and PalindromeHDPDA build the paper's Fig. 1
	// machines.
	PalindromeDPDA  = core.PalindromeDPDA
	PalindromeHDPDA = core.PalindromeHDPDA
	IsOddPalindrome = core.IsOddPalindrome
)

// Grammars and LR tables.
type (
	// Grammar is a context-free grammar.
	Grammar = grammar.Grammar
	// Sym is a grammar symbol index.
	Sym = grammar.Sym
	// Production is one grammar rule.
	Production = grammar.Production
)

var (
	// ParseGrammar reads the BNF-like grammar DSL.
	ParseGrammar = grammar.Parse
	// MustParseGrammar panics on error (for grammar literals).
	MustParseGrammar = grammar.MustParse
	// ArithGrammar is the paper's Fig. 4 example grammar.
	ArithGrammar = grammar.ArithGrammar
)

// Grammar→hDPDA compilation.
type (
	// CompileOptions selects the optimization set (paper Table IV).
	CompileOptions = compile.Options
	// Compiled bundles machine, table, token map and stats.
	Compiled = compile.Compiled
	// CompileStats holds Table III/IV quantities.
	CompileStats = compile.Stats
	// TokenMap assigns input-symbol codes to grammar terminals.
	TokenMap = compile.TokenMap
)

// Optimization presets.
var (
	// OptNone disables optimizations (Table IV "None").
	OptNone = compile.OptNone
	// OptEpsilonOnly enables ε-merging (the paper's ASPEN config).
	OptEpsilonOnly = compile.OptEpsilonOnly
	// OptAll enables ε-merging and multipop (ASPEN-MP).
	OptAll = compile.OptAll
	// CompileGrammar builds an hDPDA from a grammar.
	CompileGrammar = compile.FromGrammar
	// Reductions extracts the reduce sequence from a parse result.
	Reductions = compile.Reductions
)

// Lexing substrate.
type (
	// LexSpec is a tokenizer description.
	LexSpec = lexer.Spec
	// LexRule is one token rule.
	LexRule = lexer.Rule
	// Lexer is a compiled tokenizer.
	Lexer = lexer.Lexer
	// Token is one lexed token.
	Token = lexer.Token
	// LexStats models the lexer's cycle behaviour.
	LexStats = lexer.Stats
	// NFA is a homogeneous NFA.
	NFA = nfa.NFA
)

var (
	// NewLexer compiles and determinizes a tokenizer spec; a mode past
	// the DFA state bound is an error.
	NewLexer = lexer.New
	// CompileRegex builds a homogeneous NFA from a pattern.
	CompileRegex = nfa.Compile
)

// Evaluation languages (paper Table III).
type Language = lang.Language

var (
	// LangJSON, LangXML, LangDOT, LangCool construct the four
	// evaluation languages.
	LangJSON = lang.JSON
	LangXML  = lang.XML
	LangDOT  = lang.DOT
	LangCool = lang.Cool
	// Languages returns all four in Table III order.
	Languages = lang.All
)

// Architecture simulation.
type (
	// ArchConfig parameterizes the simulator (Table II timing, §V-B
	// energy).
	ArchConfig = arch.Config
	// Sim is a placed machine ready to process input.
	Sim = arch.Sim
	// RunStats aggregates one simulated run.
	RunStats = arch.RunStats
	// PipelineStats models the lexer/parser pipeline (Fig. 8).
	PipelineStats = arch.PipelineStats
	// Placement maps states to banks.
	Placement = place.Placement
)

var (
	// DefaultArchConfig is the paper's 850 MHz operating point.
	DefaultArchConfig = arch.DefaultConfig
	// NewSim places a machine onto banks and builds a simulator.
	NewSim = arch.New
	// RunPipeline simulates the tightly-coupled lexer/parser pipeline.
	RunPipeline = arch.RunPipeline
	// DefaultCacheAutomaton models the NFA lexing substrate.
	DefaultCacheAutomaton = arch.DefaultCacheAutomaton
)

// MNRL serialization (paper §III-B).
var (
	// ExportMNRL serializes an hDPDA to MNRL JSON.
	ExportMNRL = mnrl.ExportHDPDA
	// ImportMNRL parses MNRL JSON back into a machine.
	ImportMNRL = mnrl.ImportHDPDA
)

// Subtree mining (paper §II-D, §VI-C).
type (
	// Tree is a rooted labeled ordered tree.
	Tree = subtree.Tree
	// TreeLabel is a node label.
	TreeLabel = subtree.Label
	// InclusionMachine is a compiled subtree-inclusion hDPDA.
	InclusionMachine = subtree.InclusionMachine
	// MineConfig bounds the frequent-subtree search.
	MineConfig = subtree.MineConfig
	// MinedPattern is a frequent subtree with support.
	MinedPattern = subtree.Pattern
	// MineWorkload records the checking work for the engine models.
	MineWorkload = subtree.Workload
	// TreegenParams describes a Table I dataset.
	TreegenParams = treegen.Params
)

var (
	// DecodeTree parses Zaki's preorder string encoding.
	DecodeTree = subtree.Decode
	// NewInclusionMachine compiles a candidate subtree.
	NewInclusionMachine = subtree.NewInclusionMachine
	// IncludesFirstFit / IncludesInduced / IncludesEmbedded decide the
	// inclusion relations.
	IncludesFirstFit = subtree.IncludesFirstFit
	IncludesInduced  = subtree.IncludesInduced
	IncludesEmbedded = subtree.IncludesEmbedded
	// MineSubtrees runs the frequent-subtree search.
	MineSubtrees = subtree.Mine
	// DatasetT1M, DatasetT2M, DatasetTreebank are the Table I profiles.
	DatasetT1M      = treegen.T1M
	DatasetT2M      = treegen.T2M
	DatasetTreebank = treegen.Treebank
	// GenerateTrees synthesizes a dataset.
	GenerateTrees = treegen.Generate
)

// Software XML baselines and corpus.
type (
	// SAXCounts is the SAXCount result.
	SAXCounts = swparse.Counts
	// ParserMetrics instruments baseline control flow (Fig. 2).
	ParserMetrics = swparse.Metrics
	// XMLDoc is one generated benchmark document.
	XMLDoc = xmlgen.Doc
)

var (
	// ExpatLike and XercesLike are the conventional-parser baselines.
	ExpatLike  = swparse.ExpatLike
	XercesLike = swparse.XercesLike
	// XMLCorpus generates the 23-document Fig. 8 benchmark set.
	XMLCorpus = xmlgen.Corpus
)

// DOM construction (paper §IV-E post-processing, future work there,
// implemented here).
type (
	// DOMDocument is a parsed XML document tree.
	DOMDocument = dom.Document
	// DOMNode is one DOM node.
	DOMNode = dom.Node
	// DOMAttr is one attribute.
	DOMAttr = dom.Attr
)

var (
	// BuildDOM constructs a DOM tree in one linear pass over the DPDA
	// report stream, verifying open/close tag-name matching.
	BuildDOM = dom.Build
)

// Streaming (chunked) parsing — the paper's MBs-to-GBs operating regime.
type (
	// StreamParser is an incremental lex+parse pipeline (io.Writer).
	StreamParser = stream.Parser
	// StreamOutcome summarizes a completed stream parse.
	StreamOutcome = stream.Outcome
)

var (
	// NewStreamParser builds an incremental parser for a language.
	NewStreamParser = stream.NewParser
	// ParseStream drains an io.Reader through a streaming parser.
	ParseStream = stream.ParseReader
)

// Hardware report counters (paper §IV-E: four 16-bit counters per LLC
// way) — SAXCount-style tallies computed entirely in-cache.
type (
	// CounterRule maps report codes to a named counter.
	CounterRule = arch.CounterRule
	// CounterFile is a configured counter set.
	CounterFile = arch.CounterFile
	// CounterValues holds counter registers after a run.
	CounterValues = arch.CounterValues
)

// NewCounterFile validates a counter configuration against the
// provisioned ways.
var NewCounterFile = arch.NewCounterFile

// LangMiniC constructs the C-subset language (beyond the paper's
// Table III set; substantiates the ANSI-C claim of §III-B).
var LangMiniC = lang.MiniC

// Unordered inclusion relations (Fig. 3's O/U axis) and the simulator
// trace facility.
var (
	IncludesInducedUnordered  = subtree.IncludesInducedUnordered
	IncludesEmbeddedUnordered = subtree.IncludesEmbeddedUnordered
)

// Observability: the unified telemetry layer shared by the simulator,
// the streaming parser, and every cmd/ tool.
type (
	// MetricsRegistry is a concurrency-safe registry of counters, gauges
	// and histograms with JSON and Prometheus-text exposition.
	MetricsRegistry = telemetry.Registry
	// MetricsSnapshot is a point-in-time copy of a registry's values.
	MetricsSnapshot = telemetry.Snapshot
	// TraceSink receives structured trace events (ring buffer, JSONL
	// writer, null, or custom).
	TraceSink = telemetry.TraceSink
	// SimTraceEvent is one datapath cycle of a simulator trace.
	SimTraceEvent = arch.TraceEvent
	// ExecHooks observes machine execution cycle-by-cycle (all hooks
	// optional; a nil Hooks pointer costs one branch per step).
	ExecHooks = core.ExecHooks
	// DebugServer serves /metrics, /debug/vars and /debug/pprof.
	DebugServer = telemetry.Server
	// ObservabilityFlags is the -metrics/-trace-out/-pprof-addr flag set
	// shared by the cmd/ tools.
	ObservabilityFlags = telemetry.Flags
)

// Serving: the multi-tenant parsing service over the simulated bank
// fabric (cmd/aspend embeds exactly this surface).
type (
	// ServeOptions configures a parsing service.
	ServeOptions = serve.Options
	// ServeServer is a loaded grammar registry plus its HTTP surface.
	ServeServer = serve.Server
	// ServeGrammarInfo describes one loaded grammar: machine shape,
	// fabric mapping, and scheduling width.
	ServeGrammarInfo = serve.GrammarInfo
	// FabricCapacity relates a bank budget to execution contexts.
	FabricCapacity = arch.Capacity
	// ChaosOptions arms the fault-injection + checkpointed-recovery
	// layer of a parsing service (DESIGN.md §7).
	ChaosOptions = serve.ChaosOptions
	// FaultInjector is the hook core.Execution consults each activation;
	// arch.Injector is the deterministic fabric-aware implementation.
	FaultInjector = core.FaultInjector
	// Fabric tracks live and permanently killed banks.
	Fabric = arch.Fabric
)

var (
	// NewServeServer compiles and places every grammar and builds the
	// service's HTTP handler.
	NewServeServer = serve.New
	// FabricCapacityFor derives context count and occupancy from a bank
	// share and a machine's banks-per-context footprint.
	FabricCapacityFor = arch.CapacityFor
)

var (
	// NewMetricsRegistry creates an empty registry.
	NewMetricsRegistry = telemetry.NewRegistry
	// NewRingSink keeps the most recent N trace events in memory.
	NewRingSink = telemetry.NewRingSink
	// NewJSONLSink streams trace events as JSON lines to a writer.
	NewJSONLSink = telemetry.NewJSONLSink
	// NewDebugServer starts the observability HTTP endpoint.
	NewDebugServer = telemetry.NewServer
	// RegisterObservabilityFlags installs the shared flag set on a
	// FlagSet (see telemetry.Flags.Activate).
	RegisterObservabilityFlags = telemetry.RegisterFlags
	// ParseStreamObserved is ParseStream with telemetry routed into a
	// registry, so the run can be scraped in flight.
	ParseStreamObserved = stream.ParseReaderObserved
)
