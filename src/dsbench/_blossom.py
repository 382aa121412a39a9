"""Exact maximum-weight matching on dense complete graphs.

Primal-dual blossom algorithm (Edmonds' method with the dual steps of
Galil's formulation) on arrays, in numpy.  Only the dense complete-graph
case is supported, which is all the matching-based statistics need.

Warm start, the fractional initialisation of Blossom V (Kolmogorov 2009,
Math. Prog. Comp. 1:43-67).  scipy's ``linear_sum_assignment`` solves, in C,
the assignment problem of the weights with no vertex assigned to itself.
Its optimum is a half-integral perfect matching: a 2-cycle of the assignment
is a matched edge, and the edges of a longer cycle count one half each.
Its duals, recovered as shortest-path potentials on the residual graph by a
vectorised Bellman-Ford, give vertex duals ``y_i = -(u_i + v_i)`` that are
feasible, and every cycle edge is tight, since the reverse assignment is
optimal too.  The alternate edges of each cycle start matched, and an odd
cycle leaves one vertex free.  Rounding can break feasibility and tightness
by ulps, so a row with a negative slack, computed as ``scan`` computes it,
is raised to its least feasible dual, and an edge starts matched only if
its slack is exactly 0, after its second vertex lowers its dual as far as
its row allows if need be.  So the duals are feasible and every pre-matched
edge tight, as the search needs.  The search always runs in
maximum-cardinality mode on an even number of vertices (odd n gets a
phantom vertex), where vertex duals are free, so it breaks any pre-matched
pair that is not in the optimum.

Persistent forest, as in Blossom V: every free vertex is labelled S once and
stays the root of its alternating tree until an augmentation matches it.  An
augmentation joins exactly two trees, and only those two are dissolved; every
other tree keeps its labels, blossoms, tight edges and queue entries.  The
dissolve is a few array operations: the two trees' zero-dual S-blossoms are
expanded; their labels (nested blossoms included), ``allowedge`` rows and
columns and queue entries are cleared; and any sub-label that another tree's
T-blossom received from them is dropped.  One ``refresh`` then recomputes
the ``best`` rows that were in the two trees or led into them, and queues
the S-vertex of any tight edge to an unreached vertex for a rescan.

Least-slack edges, one per vertex, in ``best``.  For an unreached vertex u
(label 0, top-level blossom not S), ``best[u]`` is the S-vertex at the far
end of u's least-slack edge: each scan of an S-vertex keeps the lesser, so
delta2 is the least slack of ``(best[u], u)`` over the vertices of unlabelled
top-level blossoms.  For an S-vertex v, ``best[v]`` is the S-vertex of
another top-level blossom at the far end of v's least-slack edge, as of v's
last scan or refresh.  Each S-S edge between two top-level blossoms is
covered by whichever end was scanned or refreshed last, as the other end was
S by then: a vertex stays S until its tree is dissolved, and a dual step
lowers the slack of every such edge alike.  So, with the queue empty, delta3
is the least slack of ``(v, best[v])`` over S-vertices, halved.  An S row
goes stale only when its far end joins its blossom, and ``add_blossom``
refreshes those leaves (the T-leaves of a new blossom turn S and are
rescanned anyway), or when its far end leaves the forest, and ``dissolve``
refreshes it.  Galil keeps a least-slack edge per S-blossom instead, which
each new blossom must rebuild from its leaves; a refresh here costs one slack
row per stale vertex, so Galil's O(n^3) bound is not guaranteed.

Each scan of an S-vertex computes its whole slack row in one numpy
expression.  Only the tight or allowed edges reach the per-edge branch
(``take``: label T, form a blossom or augment); the ``best`` updates for
the others, the delta search and the dual updates are array operations.  A
dual step hands the edge that limits it straight to ``take`` instead of
queueing its S-vertex for a rescan.  The rarer steps (augmenting, expanding
and tracing blossoms) stay scalar.

State layout: vertices are ids 0..n-1, nontrivial blossoms n..2n-1.
``label`` values: 0 free, 1 S, 2 T (bit 4 marks breadcrumbs during path
scans).  ``labeledge[b] = (v, w)`` is the edge through which b received its
label, with v outside and w inside b; -1 means none.  ``root[b]`` is the free
vertex at the root of the tree of labelled top-level blossom b.  ``best[v]``
is the vertex at the far end of v's least-slack edge, as above; -1 means
none, and the entry of a T-vertex is not read.
"""

import numpy as np
from scipy.optimize import linear_sum_assignment


def _assignment_duals(w):
    """Optimal assignment of the cost ``-w`` with an infinite diagonal, and
    its column potentials.

    Returns ``(sigma, pot, rounds)``: row i is assigned column sigma[i], and
    ``pot`` holds shortest-path distances on the residual graph, where column
    sigma[i] reaches column j at the reduced cost ``c[i, j] - c[i, sigma[i]]``.
    Row duals ``c[i, sigma[i]] - pot[sigma[i]]`` and column duals ``pot`` are
    then optimal.  The potentials come from Bellman-Ford rounds, each
    relaxing only the rows whose column moved in the round before; ``rounds``
    counts the rounds that moved one.  A shortest path has at most n - 1
    arcs, so exact arithmetic settles in at most n - 1 such rounds.  Rounding
    can leave an ulp-sized negative cycle that never settles, so the loop
    stops after n; the start's feasibility pass repairs what is left.
    """
    n = w.shape[0]
    cost = np.negative(w)
    np.fill_diagonal(cost, np.inf)
    sigma = linear_sum_assignment(cost)[1]
    rows = np.arange(n)
    cost -= cost[rows, sigma][:, None]
    row_of = np.empty(n, dtype=np.int64)
    row_of[sigma] = rows
    pot = np.zeros(n)
    active = rows
    rounds = 0
    while rounds < n:
        reach = cost[active]
        reach += pot[sigma[active], None]
        reach = reach.min(axis=0)
        moved = (reach < pot).nonzero()[0]
        if moved.size == 0:
            break
        pot[moved] = reach[moved]
        active = row_of[moved]
        rounds += 1
    return sigma, pot, rounds


def _least_dual(y, wt2, v):
    """The least dual of vertex v whose slack row, computed as ``scan``
    computes it, is nonnegative."""
    bound = wt2[v] - y
    bound[v] = -np.inf
    yv = bound.max()
    while True:
        row = yv + y - wt2[v]
        row[v] = np.inf
        if row.min() >= 0.0:
            return yv
        yv = np.nextafter(yv, np.inf)


def _assignment_start(w, wt2):
    """Vertex duals and pre-matched mates from the optimal assignment.

    Rows with a negative slack, computed as ``scan`` computes it, are raised
    to their least feasible dual.  Each assignment cycle is then walked as a
    path that starts after its first edge whose slack is not exactly 0 (at
    its lowest vertex if there is none).  An edge whose slack is exactly 0
    both ways, or becomes so when its second vertex lowers its dual to the
    least feasible one, starts matched and the walk moves past it; otherwise
    the walk moves on one vertex.  So a tight odd cycle leaves its last
    vertex free.
    """
    n = w.shape[0]
    sigma, pot, _ = _assignment_duals(w)
    rows = np.arange(n)
    u = -w[rows, sigma] - pot[sigma]
    y = -(u + pot)
    slack = np.add.outer(y, y)
    slack -= wt2
    np.fill_diagonal(slack, np.inf)
    for v in (slack.min(axis=1) < 0.0).nonzero()[0].tolist():
        y[v] = _least_dual(y, wt2, v)
    tight = (((y + y[sigma] - wt2[rows, sigma]) == 0.0)
             & ((y[sigma] + y - wt2[sigma, rows]) == 0.0)).tolist()
    sig = sigma.tolist()
    mate = np.full(n, -1, dtype=np.int64)
    seen = [False] * n
    for s in range(n):
        cycle = []
        t = s
        while not seen[t]:
            seen[t] = True
            cycle.append(t)
            t = sig[t]
        if not cycle:
            continue
        cut = next((k for k, c in enumerate(cycle) if not tight[c]),
                   len(cycle) - 1)
        cycle = cycle[cut + 1:] + cycle[:cut + 1]
        i = 0
        while i + 1 < len(cycle):
            a, b = cycle[i], cycle[i + 1]
            if not tight[a]:
                yb = _least_dual(y, wt2, b)
                if (y[a] + yb - wt2[a, b] != 0.0
                        or yb + y[a] - wt2[b, a] != 0.0):
                    i += 1
                    continue
                y[b] = yb
            mate[a], mate[b] = b, a
            i += 2
    return y, mate


class _Matcher:
    """State of one maximum-weight perfect matching search; ``run`` returns
    the mate array.  n must be even."""

    def __init__(self, w):
        n = w.shape[0]
        nb = 2 * n
        self.n = n
        self.wt2 = 2.0 * w
        self.dualvar, self.mate = _assignment_start(w, self.wt2)
        self.label = np.zeros(nb, dtype=np.int64)
        self.labeledge = np.full((nb, 2), -1, dtype=np.int64)
        self.root = np.full(nb, -1, dtype=np.int64)
        self.best = np.full(n, -1, dtype=np.int64)
        self.inblossom = np.arange(n, dtype=np.int64)
        self.blossomparent = np.full(nb, -1, dtype=np.int64)
        self.blossombase = np.full(nb, -1, dtype=np.int64)
        self.blossombase[:n] = np.arange(n)
        self.blossomdual = np.zeros(nb)
        self.childs = [None] * nb  # sub-blossoms in cyclic order, base first
        self.endps = [None] * nb   # endps[b][i] joins childs[b][i], [i + 1]
        self.unused = list(range(nb - 1, n - 1, -1))  # pop() yields n, n+1..
        self.allowedge = np.zeros((n, n), dtype=bool)
        self.queue = []

    def leaves(self, b):
        """Leaf vertices of blossom b, in depth-first order."""
        n = self.n
        if b < n:
            return [b]
        out, stack = [], [b]
        while stack:
            t = stack.pop()
            if t < n:
                out.append(t)
            else:
                stack.extend(self.childs[t])
        return out

    def assign_label(self, w, t, v):
        """Label vertex w and its top blossom with t, coming from vertex v;
        they join v's tree, or root a new one if v is -1."""
        label, labeledge = self.label, self.labeledge
        r = self.root[self.inblossom[v]] if v >= 0 else w
        while True:
            b = self.inblossom[w]
            label[w] = label[b] = t
            self.root[b] = r
            labeledge[w] = labeledge[b] = (v, w) if v >= 0 else -1
            if t == 1:
                self.queue.extend(self.leaves(b))
                return
            # t == 2: the base's mate becomes an S vertex; loop, not recurse.
            base = self.blossombase[b]
            w, v, t = self.mate[base], base, 1

    def scan_blossom(self, v, w):
        """Trace back from v and w; return lowest common base vertex or -1."""
        label, labeledge = self.label, self.labeledge
        inblossom = self.inblossom
        path = []
        base = -1
        while v >= 0:
            b = inblossom[v]
            if label[b] & 4:
                base = self.blossombase[b]
                break
            path.append(b)
            label[b] |= 4
            if labeledge[b, 0] < 0:
                v = -1
            else:
                v = labeledge[inblossom[labeledge[b, 0]], 0]
            if w >= 0:
                v, w = w, v
        for b in path:
            label[b] &= ~4
        return base

    def add_blossom(self, base, v, w):
        """Form a new S-blossom from the cycle closed by edge (v, w)."""
        inblossom, labeledge = self.inblossom, self.labeledge
        blossomparent = self.blossomparent
        bb = inblossom[base]
        b = self.unused.pop()
        self.blossombase[b] = base
        blossomparent[b] = -1
        traces = []
        for x in (v, w):
            chain, links = [], []
            bx = inblossom[x]
            while bx != bb:
                chain.append(bx)
                links.append(tuple(labeledge[bx].tolist()))
                bx = inblossom[links[-1][0]]
            traces.append((chain, links))
        (vpath, vlinks), (wpath, wlinks) = traces
        path = [bb] + vpath[::-1] + wpath
        blossomparent[path] = b
        self.childs[b] = path
        self.endps[b] = vlinks[::-1] + [(v, w)] + [(y, x) for x, y in wlinks]
        self.label[b] = 1
        labeledge[b] = labeledge[bb]
        self.root[b] = self.root[bb]
        self.blossomdual[b] = 0.0
        leaves = np.array(self.leaves(b))
        # top-level labels before the merge; a leaf's own label is mostly 0
        was = self.label[inblossom[leaves]]
        self.queue.extend(leaves[was == 2].tolist())
        inblossom[leaves] = b
        # S-leaves whose least-slack edge now lies inside the new blossom
        far = self.best[leaves]
        self.refresh(leaves[(was == 1) & (far >= 0) & (inblossom[far] == b)])

    def ring(self, b, t):
        """The edges crossed on the even-length way round blossom b from its
        child t to its base, each as ``(p, q, c)``: p lies in the child
        left, q in the child c entered."""
        childs, endps = self.childs[b], self.endps[b]
        i = childs.index(t)
        if i & 1:
            return [(p, q, childs[(j + 1) % len(childs)])
                    for j, (p, q) in enumerate(endps[i:], i)]
        return [(q, p, childs[j]) for j, (p, q) in enumerate(endps[:i])][::-1]

    def augment_blossom(self, b0, v0):
        """Rearrange the matching inside blossom b0 so that v0 becomes its
        base."""
        n, mate = self.n, self.mate
        stack = [(b0, v0)]
        while stack:
            b, v = stack.pop()
            # immediate child of b containing v
            t = v
            while self.blossomparent[t] != b:
                t = self.blossomparent[t]
            if t >= n:
                stack.append((t, v))
            edges = self.ring(b, t)
            for (_, _, left), (p, q, c) in zip(edges[::2], edges[1::2]):
                if left >= n:
                    stack.append((left, p))
                if c >= n:
                    stack.append((c, q))
                mate[p] = q
                mate[q] = p
            childs, endps = self.childs[b], self.endps[b]
            i = childs.index(t)
            # rotate so that the child containing v comes first
            self.childs[b] = childs[i:] + childs[:i]
            self.endps[b] = endps[i:] + endps[:i]
            # The new base is v itself (children tasks may still be pending
            # on the stack, so blossombase of childs[0] cannot be read yet).
            self.blossombase[b] = v

    def augment(self, v, w):
        """Augment the matching along the path through edge (v, w)."""
        n, inblossom, labeledge = self.n, self.inblossom, self.labeledge
        for s, j in ((v, w), (w, v)):
            while True:
                bs = inblossom[s]
                if bs >= n:
                    self.augment_blossom(bs, s)
                self.mate[s] = j
                if labeledge[bs, 0] < 0:
                    break
                bt = inblossom[labeledge[bs, 0]]
                s, j = labeledge[bt].tolist()
                if bt >= n:
                    self.augment_blossom(bt, j)
                self.mate[j] = s

    def expand_blossom(self, b0, endstage):
        """Dissolve blossom b0; relabel its parts if expanding a T-blossom."""
        n, label, labeledge = self.n, self.label, self.labeledge
        inblossom, allowedge = self.inblossom, self.allowedge
        stack = [b0]
        while stack:
            b = stack.pop()
            childs = self.childs[b]
            for s in childs:
                self.blossomparent[s] = -1
                if s < n:
                    inblossom[s] = s
                elif endstage and self.blossomdual[s] == 0.0:
                    stack.append(s)
                else:
                    inblossom[self.leaves(s)] = s
            if not endstage and label[b] == 2:
                # Relabel along the blossom ring, starting at the entry child.
                self.root[childs] = self.root[b]
                entrychild = inblossom[labeledge[b, 1]]
                j = childs.index(entrychild)
                edges = self.ring(b, entrychild)
                v, w = labeledge[b].tolist()
                for (p, q, _), (x, y, _) in zip(edges[::2], edges[1::2]):
                    label[w] = label[q] = 0
                    self.assign_label(w, 2, v)
                    allowedge[p, q] = allowedge[q, p] = True
                    v, w = x, y
                    allowedge[v, w] = allowedge[w, v] = True
                bw = childs[0]
                label[w] = label[bw] = 2
                labeledge[w] = labeledge[bw] = (v, w)
                # the odd side of the ring, from the base to the entry child
                for bv in childs[1:j] if j & 1 else childs[:j:-1]:
                    if label[bv] == 1:
                        continue
                    for vv in self.leaves(bv):
                        if label[vv] != 0:
                            label[vv] = 0
                            label[self.mate[self.blossombase[bv]]] = 0
                            self.assign_label(vv, 2, labeledge[vv, 0])
                            break
            # recycle
            label[b] = 0
            labeledge[b] = -1
            self.blossombase[b] = -1
            self.childs[b] = self.endps[b] = None
            self.blossomdual[b] = 0.0
            self.unused.append(b)

    def take(self, v, w):
        """Act on the tight edge (v, w) of S-vertex v: label w T, form a
        blossom or augment; return True if it augmented."""
        inblossom, label = self.inblossom, self.label
        bw = inblossom[w]
        if inblossom[v] == bw:  # joined v's blossom earlier in this scan
            return False
        if label[bw] == 0:
            self.assign_label(w, 2, v)
        elif label[bw] == 1:
            base = self.scan_blossom(v, w)
            if base < 0:
                self.augment(v, w)
                return True
            self.add_blossom(base, v, w)
        elif label[w] == 0:
            label[w] = 2
            self.labeledge[w] = (v, w)
        return False

    def scan(self, v):
        """Scan the edges of S-vertex v; return True if it augmented."""
        dualvar, wt2, label = self.dualvar, self.wt2, self.label
        inblossom, best = self.inblossom, self.best
        slack = dualvar[v] + dualvar - wt2[v]
        tight = ((inblossom != inblossom[v])
                 & (self.allowedge[v] | (slack <= 0.0)))
        tw = tight.nonzero()[0]
        if tw.size:
            self.allowedge[v, tw] = True
            self.allowedge[tw, v] = True
        for w in tw.tolist():
            if self.take(v, w):
                return True
        # Least-slack edges of the other edges, on the labels after the
        # loop; argmin and a strict < keep the first index on ties.
        rest = ~tight & (inblossom != inblossom[v])
        toplabel = label[inblossom]
        tos = (rest & (toplabel == 1)).nonzero()[0]
        best[v] = tos[slack[tos].argmin()] if tos.size else -1
        tofree = (rest & (toplabel != 1) & (label[:self.n] == 0)).nonzero()[0]
        if tofree.size:
            better = tofree[(best[tofree] < 0)
                            | (slack[tofree] < self.best_slack(tofree))]
            best[better] = v
        return False

    def best_slack(self, rows):
        """Slack of the edge from each vertex in ``rows`` to its ``best``,
        without blossom duals."""
        far = self.best[rows]
        return self.dualvar[rows] + self.dualvar[far] - self.wt2[rows, far]

    def refresh(self, rows):
        """Point ``best`` of each vertex in ``rows`` at its least-slack
        S-vertex outside its own top-level blossom, the first on ties, and
        queue the S end of a tight edge to an unreached vertex."""
        if rows.size == 0:
            return
        inblossom, label, best = self.inblossom, self.label, self.best
        svert = (label[inblossom] == 1).nonzero()[0]
        if svert.size == 0:
            best[rows] = -1
            return
        slack = (self.dualvar[rows, None] + self.dualvar[svert]
                 - self.wt2[rows[:, None], svert])
        slack[inblossom[rows, None] == inblossom[svert]] = np.inf
        k = slack.argmin(axis=1)
        least = slack[np.arange(rows.size), k]
        best[rows] = np.where(least < np.inf, svert[k], -1)
        tight = (least <= 0.0) & (label[inblossom[rows]] != 1)
        if tight.any():
            self.queue.extend(np.unique(svert[k[tight]]).tolist())

    def dual_step(self):
        """Change the duals by the largest feasible delta and act on the
        constraint that limits it; return True if that augmented."""
        label, best = self.label, self.best
        toplabel = label[self.inblossom]
        deltatype = -1
        # delta2: a free vertex with an edge to an S-vertex
        free = ((toplabel == 0) & (best >= 0)).nonzero()[0]
        if free.size:
            slack = self.best_slack(free)
            k = slack.argmin()
            delta, deltatype, deltaedge = slack[k], 2, (best[free[k]], free[k])
        # delta3: an edge between S-vertices of two top-level blossoms
        svert = ((toplabel == 1) & (best >= 0)).nonzero()[0]
        if svert.size:
            slack = self.best_slack(svert) / 2.0
            k = slack.argmin()
            if deltatype == -1 or slack[k] < delta:
                delta, deltatype = slack[k], 3
                deltaedge = (svert[k], best[svert[k]])
        # delta4: a T-blossom whose dual reaches zero
        top = (self.blossomparent == -1) & (self.blossombase >= 0)
        top[:self.n] = False  # top-level nontrivial blossoms only
        tblossoms = (top & (label == 2)).nonzero()[0]
        if tblossoms.size:
            k = self.blossomdual[tblossoms].argmin()
            if deltatype == -1 or self.blossomdual[tblossoms[k]] < delta:
                delta, deltatype = self.blossomdual[tblossoms[k]], 4
                deltablossom = tblossoms[k]
        if deltatype == -1:
            raise RuntimeError("no constraint limits the dual step")
        self.dualvar[toplabel == 1] -= delta
        self.dualvar[toplabel == 2] += delta
        self.blossomdual[top & (label == 1)] += delta
        self.blossomdual[top & (label == 2)] -= delta
        if deltatype == 4:
            self.expand_blossom(deltablossom, False)
            return False
        v, w = deltaedge
        self.allowedge[v, w] = self.allowedge[w, v] = True
        return self.take(v, w)

    def dissolve(self, roots):
        """Unlabel the two trees rooted at ``roots``, which the last
        augmentation joined, and refresh the least-slack edges that were in
        them or led into them."""
        n, label, labeledge = self.n, self.label, self.labeledge
        best, inblossom = self.best, self.inblossom
        gone = (label[inblossom] != 0) & np.isin(self.root[inblossom], roots)
        # sub-labels inside other trees' T-blossoms that came from the two
        src = labeledge[:n, 0]
        dropped = ~gone & (label[:n] != 0) & (src >= 0) & gone[src]
        stale = gone | dropped | ((best >= 0) & gone[best])
        tops = np.unique(inblossom[gone])
        for b in tops[(tops >= n) & (label[tops] == 1)
                      & (self.blossomdual[tops] == 0.0)].tolist():
            self.expand_blossom(b, True)
        ids = np.flatnonzero(self.blossombase >= 0)
        ids = ids[gone[self.blossombase[ids]]]
        label[ids] = 0
        labeledge[ids] = -1
        label[:n][dropped] = 0
        labeledge[:n][dropped] = -1
        self.allowedge[gone] = False
        self.allowedge[:, gone] = False
        queue = np.array(self.queue, dtype=np.int64)
        self.queue = queue[~gone[queue]].tolist()
        # the S-vertices and unreached vertices among the stale rows
        self.refresh(np.flatnonzero(
            stale & ((label[inblossom] == 1) | (label[:n] == 0))))

    def run(self):
        free = np.flatnonzero(self.mate < 0)
        for v in free.tolist():
            self.assign_label(v, 1, -1)
        while free.size:
            augmented = False
            while not augmented:
                if self.queue:
                    augmented = self.scan(self.queue.pop())
                else:
                    augmented = self.dual_step()
            joined = self.mate[free] >= 0
            self.dissolve(free[joined])
            free = free[~joined]
        return self.mate


def max_weight_matching_dense(weights):
    """Maximum-weight maximum-cardinality matching of a complete graph.

    weights: symmetric (n, n) array of edge weights (diagonal ignored).
    Returns mate array of length n (mate[i] = j, or -1 for the one vertex
    left single when n is odd).
    """
    w = np.asarray(weights, dtype=np.float64)
    n = w.shape[0]
    if n < 2:
        return np.full(n, -1, dtype=np.int64)
    if n % 2 == 1:
        # A phantom vertex joined to every vertex by equal weights: each
        # perfect matching uses one such edge, so the rest is a maximum-weight
        # maximum-cardinality matching, whatever the common weight.
        lightest = w[~np.eye(n, dtype=bool)].min()
        w = np.pad(w, (0, 1), constant_values=lightest)
    mate = _Matcher(w).run()[:n]
    mate[mate == n] = -1
    return mate
