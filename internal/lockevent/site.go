package lockevent

import (
	"fmt"
	"runtime"
	"strings"

	"thinlock/internal/threading"
)

// MaxStackDepth is how many Go caller PCs a site key retains. Deep
// enough to reach through the lock implementation into the workload
// frame that actually requested the lock.
const MaxStackDepth = 8

// SiteKey identifies one lock site. Exactly one of the two encodings is
// populated:
//
//   - a VM site (interpreter-driven acquisition): the executing method's
//     qualified name plus the bytecode pc of the monitorenter (or -1 for
//     a synchronized-method prologue), taken from the thread's published
//     frame;
//   - a Go site (direct library use): the caller PC chain, starting at
//     the lock-path frame that emitted the event.
//
// The key is comparable, so records can be deduplicated with ==.
type SiteKey struct {
	// VMMethod is the interpreter method ("Class.method"), or "" for a
	// Go site.
	VMMethod string
	// VMPC is the bytecode pc of the acquisition (-1 marks a
	// synchronized-method prologue).
	VMPC int32
	// PCs is the Go caller chain, leaf first; entries past Depth are
	// zero.
	PCs [MaxStackDepth]uintptr
	// Depth is the number of valid PCs.
	Depth uint8
}

// IsVM reports whether the key is an interpreter site.
func (k SiteKey) IsVM() bool { return k.VMMethod != "" }

// Hash returns a 64-bit FNV-1a hash of the key.
//
//lockvet:noalloc
func (k SiteKey) Hash() uint64 {
	h := uint64(fnvOffset)
	for i := 0; i < len(k.VMMethod); i++ {
		h ^= uint64(k.VMMethod[i])
		h *= fnvPrime
	}
	h = fnvMix(h, uint64(uint32(k.VMPC)))
	for i := uint8(0); i < k.Depth; i++ {
		h = fnvMix(h, uint64(k.PCs[i]))
	}
	return h
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// fnvMix folds the eight bytes of v into h.
func fnvMix(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= v & 0xFF
		h *= fnvPrime
		v >>= 8
	}
	return h
}

// sinkDepth is how many frames a sink may run below dispatch when it
// captures a site (the deepest today: dispatch, Lockdep.Event,
// Acquired, captureSite). Each frame costs the unwinder, so the capture
// walks no further than this plus MaxStackDepth.
const sinkDepth = 4

// dispatchReturn is the return address of dispatch's call into a sink.
// Every sink runs below that one call instruction, so CaptureSite finds
// it in the caller chain and keeps only the frames above it: the key
// starts at the lock path that emitted the event, however deep the
// sink's own frames are.
var dispatchReturn = probeDispatchReturn()

// returnProbe is a sink that records its caller's return address.
type returnProbe struct{ pc uintptr }

func (p *returnProbe) Kinds() Mask { return ^Mask(0) }

func (p *returnProbe) Event(Event) {
	var pcs [1]uintptr
	runtime.Callers(2, pcs[:]) // 0 is Callers, 1 is Event, 2 is dispatch
	p.pc = pcs[0]
}

// probeDispatchReturn runs one event through dispatch with only the
// probe installed. It runs during package initialization, before any
// sink can be.
func probeDispatchReturn() uintptr {
	p := &returnProbe{}
	Install(SlotTelemetry, p)
	dispatch(KindCount, 0, nil, nil, 0)
	Install(SlotTelemetry, nil)
	return p.pc
}

// CaptureSite resolves t's current lock site: the published VM frame if
// there is one, otherwise the Go caller chain above the event dispatch
// (or above CaptureSite's caller when called outside the pipeline). The
// PC buffer lives in the key, so the capture allocates nothing.
//
//lockvet:noalloc
func CaptureSite(t *threading.Thread) (k SiteKey) {
	if t != nil {
		if method, pc, ok := t.Frame(); ok && method != "" {
			k.VMMethod, k.VMPC = method, pc
			return k
		}
	}
	var buf [MaxStackDepth + sinkDepth]uintptr
	n := runtime.Callers(2, buf[:])
	start := 0
	for i := 0; i < n; i++ {
		if buf[i] == dispatchReturn {
			start = i + 1
			break
		}
	}
	k.Depth = uint8(copy(k.PCs[:], buf[start:n]))
	return k
}

// Frame is one symbolized stack frame of a site.
type Frame struct {
	Func string `json:"func"`
	File string `json:"file"`
	Line int    `json:"line"`
}

// Frames resolves the key into human-readable frames. VM sites yield a
// single synthetic frame; Go sites are resolved through the runtime's
// symbol tables (inline expansion included).
func (k SiteKey) Frames() []Frame {
	if k.IsVM() {
		return []Frame{{Func: k.VMMethod, File: "<minijava>", Line: int(k.VMPC)}}
	}
	frames := runtime.CallersFrames(k.PCs[:k.Depth])
	var out []Frame
	for {
		f, more := frames.Next()
		if f.Function != "" {
			out = append(out, Frame{Func: f.Function, File: f.File, Line: f.Line})
		}
		if !more {
			break
		}
	}
	return out
}

// Label is the key's display name: "Class.method @pc" for a VM site,
// LabelFrames of the symbolized chain for a Go site.
func (k SiteKey) Label() string {
	if k.IsVM() {
		return fmt.Sprintf("%s @%d", k.VMMethod, k.VMPC)
	}
	return LabelFrames(k.Frames())
}

// internalFramePrefixes name the lock-machinery packages whose frames
// are skipped when choosing a site's display label, so the label lands
// on the workload frame that requested the lock.
var internalFramePrefixes = []string{
	"thinlock/internal/lockevent",
	"thinlock/internal/telemetry",
	"thinlock/internal/lockprof",
	"thinlock/internal/lockdep",
	"thinlock/internal/core",
	"thinlock/internal/biased",
	"thinlock/internal/monitor",
	"thinlock/internal/monitorcache",
	"thinlock/internal/hotlocks",
	"thinlock/internal/lockapi",
	// The jcl synchronized helper is pure lock plumbing; the class-library
	// methods above it (Vector.AddElement, ...) are the meaningful sites.
	"thinlock/internal/jcl.(*Context).synchronized",
	"thinlock/internal/locktrace",
	"thinlock/internal/lockstat",
	"thinlock/internal/arch",
	"runtime",
}

func isInternalFrame(fn string) bool {
	for _, p := range internalFramePrefixes {
		if strings.HasPrefix(fn, p+".") || fn == p {
			return true
		}
	}
	return false
}

// LabelFrames picks the display name for a symbolized Go site: the
// first frame that is not lock machinery, or the leaf frame as a
// fallback.
func LabelFrames(frames []Frame) string {
	for _, f := range frames {
		if !isInternalFrame(f.Func) {
			return frameLabel(f)
		}
	}
	if len(frames) > 0 {
		return frameLabel(frames[0])
	}
	return "(unknown site)"
}

func frameLabel(f Frame) string {
	return fmt.Sprintf("%s (%s:%d)", f.Func, shortFile(f.File), f.Line)
}

// shortFile trims a file path to its last two components.
func shortFile(path string) string {
	slashes := 0
	for i := len(path) - 1; i >= 0; i-- {
		if path[i] == '/' {
			slashes++
			if slashes == 2 {
				return path[i+1:]
			}
		}
	}
	return path
}
