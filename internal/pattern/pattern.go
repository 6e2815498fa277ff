// Package pattern implements the graph pattern queries of Section 2 of
// Fan, Wang & Wu (SIGMOD 2014): Q = (V_p, E_p, f_v, u_p, u_o), a small
// node-labeled directed graph with a designated personalized node u_p
// (whose match v_p in the data graph is unique and fixed) and an output
// node u_o that carries the search intent.
//
// A Pattern knows the quantities the paper's complexity analysis depends
// on: its diameter d_Q (used to scope the neighborhood G_{d_Q}(v_p)), its
// diameter d when treated as an undirected graph, and the number l of
// distinct labels (both appear in the 100%-accuracy bound of Theorem 3(b)).
package pattern

import (
	"errors"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"
)

// NodeID identifies a query node; ids are dense 0..|V_p|-1.
type NodeID int32

// Pattern is a graph pattern query. Construct with a Builder or Parse, then
// treat as immutable.
type Pattern struct {
	labels       []string
	out          [][]NodeID
	in           [][]NodeID
	numEdges     int
	personalized NodeID
	output       NodeID
	diam         int    // d_Q, cached at Build; see Diameter
	text         string // cached String(), computed at construction
}

// NumNodes returns |V_p|.
func (p *Pattern) NumNodes() int { return len(p.labels) }

// NumEdges returns |E_p|.
func (p *Pattern) NumEdges() int { return p.numEdges }

// Size returns |Q| = |V_p| + |E_p|.
func (p *Pattern) Size() int { return p.NumNodes() + p.NumEdges() }

// Label returns f_v(u), the label constraint of query node u.
func (p *Pattern) Label(u NodeID) string { return p.labels[u] }

// Labels returns f_v as a slice indexed by query node id. The slice is
// shared with the pattern and must not be modified; engines hand it to
// graph.InternLabels to resolve every constraint to an interned id once
// per query.
func (p *Pattern) Labels() []string { return p.labels }

// Out returns u's children. The slice is shared and must not be modified.
func (p *Pattern) Out(u NodeID) []NodeID { return p.out[u] }

// In returns u's parents. The slice is shared and must not be modified.
func (p *Pattern) In(u NodeID) []NodeID { return p.in[u] }

// Degree returns the number of edges incident to u (in plus out).
func (p *Pattern) Degree(u NodeID) int { return len(p.out[u]) + len(p.in[u]) }

// Personalized returns u_p.
func (p *Pattern) Personalized() NodeID { return p.personalized }

// Output returns u_o.
func (p *Pattern) Output() NodeID { return p.output }

// HasEdge reports whether (u, u') is a pattern edge.
func (p *Pattern) HasEdge(u, w NodeID) bool {
	for _, x := range p.out[u] {
		if x == w {
			return true
		}
	}
	return false
}

// Diameter returns d_Q: the length of the longest shortest path between any
// connected pair of query nodes, following edges in either direction. The
// paper uses d_Q to scope the data neighborhood G_{d_Q}(v_p); taking hops in
// either direction matches the neighborhood definition N_r(v) of Section 2.
// It is computed once at Build and returned in O(1): the exact baselines
// call it per query evaluation, on their allocation-free path.
func (p *Pattern) Diameter() int { return p.diam }

func (p *Pattern) diameter(scratch []int32) int {
	max := 0
	for s := range p.labels {
		if _, ecc := p.bfs(NodeID(s), scratch); ecc > max {
			max = ecc
		}
	}
	return max
}

// bfs walks the pattern from s by undirected hops. scratch has two slots
// per query node: hop counts (-1 = unreachable) in the first half, the
// visit queue in the second. It returns how many nodes it reached, s
// included, and s's eccentricity among them.
func (p *Pattern) bfs(s NodeID, scratch []int32) (reached, ecc int) {
	n := len(p.labels)
	dist, queue := scratch[:n], scratch[n:]
	for i := range dist {
		dist[i] = -1
	}
	dist[s] = 0
	queue[0] = int32(s)
	reached = 1
	for head := 0; head < reached; head++ {
		u := queue[head]
		for _, neigh := range [2][]NodeID{p.out[u], p.in[u]} {
			for _, w := range neigh {
				if dist[w] < 0 {
					dist[w] = dist[u] + 1
					queue[reached] = int32(w)
					reached++
				}
			}
		}
	}
	return reached, int(dist[queue[reached-1]])
}

// Connected reports whether every query node is reachable from u_p by
// undirected hops. Disconnected patterns cannot be answered by a
// personalized traversal; Validate rejects them.
func (p *Pattern) Connected() bool {
	return p.connected(make([]int32, 2*len(p.labels)))
}

func (p *Pattern) connected(scratch []int32) bool {
	reached, _ := p.bfs(p.personalized, scratch)
	return reached == len(p.labels)
}

// Validate checks the structural requirements of Section 2: non-empty,
// personalized and output nodes in range, and connectivity from u_p.
func (p *Pattern) Validate() error {
	if err := p.checkDesignated(); err != nil {
		return err
	}
	if !p.Connected() {
		return errNotConnected
	}
	return nil
}

var errNotConnected = errors.New("pattern: not connected from the personalized node")

func (p *Pattern) checkDesignated() error {
	if p.NumNodes() == 0 {
		return fmt.Errorf("pattern: empty pattern")
	}
	if int(p.personalized) < 0 || int(p.personalized) >= p.NumNodes() {
		return fmt.Errorf("pattern: personalized node %d out of range", p.personalized)
	}
	if int(p.output) < 0 || int(p.output) >= p.NumNodes() {
		return fmt.Errorf("pattern: output node %d out of range", p.output)
	}
	return nil
}

// String returns the pattern in the textual form accepted by Parse. It
// is rendered once at construction (Build, Parse, WithPersonalized) and
// then returned in O(1) without allocating: the textual form is the
// pattern's identity key, and the facade's plan cache looks it up on
// every query, so the hot path must not re-render it.
func (p *Pattern) String() string {
	if p.text != "" {
		return p.text
	}
	return p.render()
}

func (p *Pattern) render() string {
	size := 0
	for _, l := range p.labels {
		size += len("node 123 *!\n") + len(l)
	}
	size += p.numEdges * len("edge 123 123\n")
	var sb strings.Builder
	sb.Grow(size)
	var num [20]byte
	for u, l := range p.labels {
		sb.WriteString("node ")
		sb.Write(strconv.AppendInt(num[:0], int64(u), 10))
		sb.WriteByte(' ')
		sb.WriteString(l)
		if NodeID(u) == p.personalized {
			sb.WriteByte('*')
		}
		if NodeID(u) == p.output {
			sb.WriteByte('!')
		}
		sb.WriteByte('\n')
	}
	for u := range p.out {
		for _, w := range p.out[u] {
			sb.WriteString("edge ")
			sb.Write(strconv.AppendInt(num[:0], int64(u), 10))
			sb.WriteByte(' ')
			sb.Write(strconv.AppendInt(num[:0], int64(w), 10))
			sb.WriteByte('\n')
		}
	}
	return sb.String()
}

// Builder assembles a Pattern.
type Builder struct {
	labels       []string
	edges        [][2]NodeID
	personalized NodeID
	output       NodeID
	hasP, hasO   bool
}

// NewBuilder returns an empty pattern builder.
func NewBuilder() *Builder { return &Builder{} }

// AddNode appends a query node with label constraint f_v(u) and returns its
// id.
func (b *Builder) AddNode(label string) NodeID {
	b.labels = append(b.labels, label)
	return NodeID(len(b.labels) - 1)
}

// AddEdge records the pattern edge (u, w).
func (b *Builder) AddEdge(u, w NodeID) *Builder {
	b.edges = append(b.edges, [2]NodeID{u, w})
	return b
}

// SetPersonalized designates u_p.
func (b *Builder) SetPersonalized(u NodeID) *Builder { b.personalized, b.hasP = u, true; return b }

// SetOutput designates u_o.
func (b *Builder) SetOutput(u NodeID) *Builder { b.output, b.hasO = u, true; return b }

// Build validates and returns the pattern.
func (b *Builder) Build() (*Pattern, error) {
	return b.build(append([]string(nil), b.labels...))
}

// build is Build with the label slice handed over: the pattern owns
// labels, which holds b.labels' contents.
func (b *Builder) build(labels []string) (*Pattern, error) {
	n := len(labels)
	adj := make([][]NodeID, 2*n)
	p := &Pattern{
		labels:       labels,
		out:          adj[:n:n],
		in:           adj[n:],
		personalized: b.personalized,
		output:       b.output,
	}
	if !b.hasP || !b.hasO {
		return nil, fmt.Errorf("pattern: personalized and output nodes are required")
	}
	// Adjacency as slices of two arenas, one per direction — no map, no
	// per-node growth: count, carve, fill, then sort and dedupe each out
	// list in place. Filling the in lists from the deduped out lists in
	// ascending source order leaves them sorted and duplicate-free too.
	// One scratch serves the degree counts here and the traversals below.
	scratch := make([]int32, 2*n)
	deg := scratch[:n]
	for _, e := range b.edges {
		if int(e[0]) >= n || int(e[1]) >= n || e[0] < 0 || e[1] < 0 {
			return nil, fmt.Errorf("pattern: edge (%d,%d) out of range", e[0], e[1])
		}
		deg[e[0]]++
	}
	arena := make([]NodeID, 2*len(b.edges))
	outArena, inArena := arena[:len(b.edges)], arena[len(b.edges):]
	for u, d := range deg {
		p.out[u], outArena = outArena[:0:d], outArena[d:]
	}
	for _, e := range b.edges {
		p.out[e[0]] = append(p.out[e[0]], e[1])
	}
	clear(deg)
	for u := range p.out {
		slices.Sort(p.out[u])
		p.out[u] = slices.Compact(p.out[u])
		p.numEdges += len(p.out[u])
		for _, w := range p.out[u] {
			deg[w]++
		}
	}
	for w, d := range deg {
		p.in[w], inArena = inArena[:0:d], inArena[d:]
	}
	for u := range p.out {
		for _, w := range p.out[u] {
			p.in[w] = append(p.in[w], NodeID(u))
		}
	}
	if err := p.checkDesignated(); err != nil {
		return nil, err
	}
	if !p.connected(scratch) {
		return nil, errNotConnected
	}
	p.diam = p.diameter(scratch)
	p.text = p.render()
	return p, nil
}

// MustBuild is Build that panics on error, for tests and examples.
func (b *Builder) MustBuild() *Pattern {
	p, err := b.Build()
	if err != nil {
		panic(err)
	}
	return p
}

// Parse reads the textual pattern format produced by String:
//
//	node <id> <label>[*][!]
//	edge <from> <to>
//
// where * marks the personalized node and ! the output node. Node ids must
// be dense and ascending from 0. Blank lines and lines starting with # are
// ignored.
func Parse(text string) (*Pattern, error) {
	// Patterns are a dozen lines; size the builder once for the usual
	// case and let a long text grow it.
	hint := min(strings.Count(text, "\n")+1, 32)
	b := &Builder{labels: make([]string, 0, hint), edges: make([][2]NodeID, 0, hint)}
	for lineNo := 1; text != ""; lineNo++ {
		var line string
		line, text, _ = strings.Cut(text, "\n")
		line = strings.TrimSpace(line)
		if line == "" || line[0] == '#' {
			continue
		}
		directive, rest := nextField(line)
		f1, rest := nextField(rest)
		f2, rest := nextField(rest)
		switch directive {
		case "node":
			if f2 == "" || rest != "" {
				return nil, fmt.Errorf("pattern: line %d: want 'node <id> <label>'", lineNo)
			}
			id, err := strconv.Atoi(f1)
			if err != nil {
				return nil, fmt.Errorf("pattern: line %d: bad id %q", lineNo, f1)
			}
			isP := strings.Contains(f2, "*")
			isO := strings.Contains(f2, "!")
			u := b.AddNode(strings.TrimRight(f2, "*!"))
			if int(u) != id {
				return nil, fmt.Errorf("pattern: line %d: node ids must be dense and ascending (got %d, want %d)", lineNo, id, u)
			}
			if isP {
				b.SetPersonalized(u)
			}
			if isO {
				b.SetOutput(u)
			}
		case "edge":
			if f2 == "" || rest != "" {
				return nil, fmt.Errorf("pattern: line %d: want 'edge <from> <to>'", lineNo)
			}
			u, err := strconv.ParseInt(f1, 10, 32)
			if err != nil {
				return nil, fmt.Errorf("pattern: line %d: bad id %q", lineNo, f1)
			}
			w, err := strconv.ParseInt(f2, 10, 32)
			if err != nil {
				return nil, fmt.Errorf("pattern: line %d: bad id %q", lineNo, f2)
			}
			b.AddEdge(NodeID(u), NodeID(w))
		default:
			return nil, fmt.Errorf("pattern: line %d: unknown directive %q", lineNo, directive)
		}
	}
	return b.build(b.labels) // the builder is not used again
}

// nextField splits s, which has no leading white space, at its first run
// of white space: the field before it and the remainder after it. White
// space is unicode.IsSpace, as for strings.Fields; the bytes of a pattern
// text are nearly all ASCII, which is tested inline.
func nextField(s string) (field, rest string) {
	end := len(s)
	for i := 0; i < len(s); {
		c, size := rune(s[i]), 1
		if c >= utf8.RuneSelf {
			c, size = utf8.DecodeRuneInString(s[i:])
		}
		if isSpace(c) {
			if end == len(s) {
				end = i // the field ends here; skip the rest of the run
			}
		} else if end < len(s) {
			return s[:end], s[i:]
		}
		i += size
	}
	return s[:end], ""
}

func isSpace(c rune) bool {
	if c < utf8.RuneSelf {
		return c == ' ' || '\t' <= c && c <= '\r'
	}
	return unicode.IsSpace(c)
}

// WithPersonalized returns a copy of p whose personalized node is u (the
// output node is unchanged). It enables evaluating a pattern "without a
// personalized node" (the paper's Section 7 extension) by anchoring it at
// each candidate of a chosen query node in turn.
func (p *Pattern) WithPersonalized(u NodeID) (*Pattern, error) {
	if int(u) < 0 || int(u) >= p.NumNodes() {
		return nil, fmt.Errorf("pattern: node %d out of range", u)
	}
	q := &Pattern{
		labels:       p.labels,
		out:          p.out,
		in:           p.in,
		numEdges:     p.numEdges,
		personalized: u,
		output:       p.output,
		diam:         p.diam, // re-rooting does not change d_Q
	}
	if err := q.Validate(); err != nil {
		return nil, err
	}
	q.text = q.render() // the * mark moved: the re-rooting has its own identity
	return q, nil
}
