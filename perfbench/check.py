"""Independent output checks.  Nothing here imports boolmin: formulas are
read back from the text the program wrote, with the benchmark's own reader.

* up to MAX_TABLE_VARS variables: bit-parallel truth tables;
* above that: clause-by-clause entailment by unit propagation in both
  directions for Horn, dual-Horn and 2-CNF inputs (complete for satisfiable
  formulas of those classes), and GF(2) span equality for parity systems;
* nested-formula witnesses: size recounted and compared with the reported
  minimum, and truth tables compared with the input.
"""
from __future__ import annotations

from textio import Cnf, read_cnf, read_tree, tree_gates, tree_leaves

MAX_TABLE_VARS = 20


# language file name -> relation name -> (arity, allowed tuples)
Languages = dict[str, dict[str, tuple[int, frozenset]]]


# --- truth tables ------------------------------------------------------------


def var_masks(n: int) -> list[int]:
    """masks[i] has bit a set iff variable i is 1 in assignment a."""
    size = 1 << n
    masks = []
    for i in range(n):
        period = 1 << (i + 1)
        m = ((1 << (1 << i)) - 1) << (1 << i)
        while period < size:
            m |= m << period
            period <<= 1
        masks.append(m)
    return masks


def cnf_table(cnf: Cnf, langs: Languages, index: dict[str, int], masks: list[int], full: int) -> int:
    """Solution set of a CNF over the variables in `index`: each clause is
    the conjunction, over its relation's excluded tuples t, of "differs
    from t somewhere"."""
    table = full
    for name, ids in cnf.clauses:
        arity, allowed = langs[cnf.language][name]
        cols = [masks[index[cnf.var_names[v]]] for v in ids]
        for code in range(1 << arity):
            t = tuple((code >> (arity - 1 - j)) & 1 for j in range(arity))
            if t in allowed:
                continue
            differs = 0
            for bit, m in zip(t, cols):
                differs |= (full ^ m) if bit else m
            table &= differs
    return table


def tree_table(tree, funcs: dict, index: dict[str, int], masks: list[int], full: int) -> int:
    """Truth table of a nested formula, evaluated bottom-up without recursion."""
    done: dict[int, int] = {}
    todo = [(tree, False)]
    while todo:
        node, expanded = todo.pop()
        if isinstance(node, str):
            done[id(node)] = masks[index[node]]
            continue
        if not expanded:
            todo.append((node, True))
            todo.extend((child, False) for child in node[1:])
            continue
        arity, table = funcs[node[0]]
        args = [done[id(child)] for child in node[1:]]
        out = 0
        for code, value in enumerate(table):
            if not value:
                continue
            term = full
            for j, m in enumerate(args):
                term &= m if (code >> (arity - 1 - j)) & 1 else full ^ m
            out |= term
        done[id(node)] = out
    return done[id(tree)]


def _tables(a: Cnf, b: Cnf, langs: Languages) -> tuple[int, int]:
    names = sorted(set(a.var_names) | set(b.var_names))
    index = {name: i for i, name in enumerate(names)}
    masks = var_masks(len(names))
    full = (1 << (1 << len(names))) - 1
    return cnf_table(a, langs, index, masks, full), cnf_table(b, langs, index, masks, full)


def solution_table(cnf: Cnf, langs: Languages) -> int:
    """Solution set of a CNF over its own variables."""
    return _tables(cnf, cnf, langs)[0]


# --- unit propagation --------------------------------------------------------


def literal_clauses(cnf: Cnf, langs: Languages) -> set[frozenset[int]]:
    """Clauses as sets of literals (+v+1 / -(v+1)); one clause per excluded
    tuple of each relation application, tautologies dropped."""
    out = set()
    for name, ids in cnf.clauses:
        arity, allowed = langs[cnf.language][name]
        for code in range(1 << arity):
            t = tuple((code >> (arity - 1 - j)) & 1 for j in range(arity))
            if t in allowed:
                continue
            lits = frozenset(-(v + 1) if bit else v + 1 for bit, v in zip(t, ids))
            if not any(-lit in lits for lit in lits):
                out.add(lits)
    return out


class Propagator:
    """Unit propagation over a clause set, restarted from scratch per query."""

    def __init__(self, clauses: set[frozenset[int]]):
        self.clauses = [tuple(c) for c in clauses]
        self.units = [c[0] for c in self.clauses if len(c) == 1]
        self.occ: dict[int, list[int]] = {}
        for ci, c in enumerate(self.clauses):
            for lit in c:
                self.occ.setdefault(lit, []).append(ci)

    def conflicts(self, assumed: list[int]) -> bool:
        value: dict[int, int] = {}
        false_count: dict[int, int] = {}
        satisfied: set[int] = set()
        queue = list(assumed) + self.units
        while queue:
            lit = queue.pop()
            known = value.get(abs(lit))
            if known is not None:
                if known != lit:
                    return True
                continue
            value[abs(lit)] = lit
            satisfied.update(self.occ.get(lit, ()))
            for ci in self.occ.get(-lit, ()):
                if ci in satisfied:
                    continue
                clause = self.clauses[ci]
                k = false_count.get(ci, 0) + 1
                false_count[ci] = k
                if k == len(clause):
                    return True
                if k == len(clause) - 1:
                    for other in clause:
                        if abs(other) not in value:
                            queue.append(other)
                            break
        return False

    def entails(self, clause: frozenset[int]) -> bool:
        return self.conflicts([-lit for lit in clause])


class TwoCnfPropagator:
    """Unit propagation for 2-CNF.  From a set of literals it derives exactly
    the literals reachable in the implication graph (a clause a|b gives the
    edges -a -> b and -b -> a), so every literal's derivations are computed
    once, as a bitset, over the strongly connected components."""

    def __init__(self, clauses: set[frozenset[int]], n_vars: int):
        adj: list[list[int]] = [[] for _ in range(2 * n_vars)]
        units = []
        for clause in clauses:
            lits = tuple(clause)
            if len(lits) == 1:
                units.append(self.node(lits[0]))
            else:
                a, b = lits
                adj[self.node(-a)].append(self.node(b))
                adj[self.node(-b)].append(self.node(a))
        self.closure = _closures(adj)
        self.from_units = 0
        for u in units:
            self.from_units |= self.closure[u]
        # bit 2v: literal v+1, bit 2v+1: its negation
        self.even = int("01" * n_vars, 2) if n_vars else 0

    @staticmethod
    def node(lit: int) -> int:
        return 2 * (abs(lit) - 1) + (lit < 0)

    def entails(self, clause: frozenset[int]) -> bool:
        derived = self.from_units
        for lit in clause:
            derived |= self.closure[self.node(-lit)]
        return bool(derived & (derived >> 1) & self.even)


def _closures(adj: list[list[int]]) -> list[int]:
    """Reachable-node bitset of every node: Tarjan's algorithm without
    recursion, which emits each component after all components it reaches."""
    n = len(adj)
    index, low, comp = [-1] * n, [0] * n, [-1] * n
    on_stack = [False] * n
    stack: list[int] = []
    comp_bits: list[int] = []
    counter = 0
    for root in range(n):
        if index[root] != -1:
            continue
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack[root] = True
        work = [(root, 0)]
        while work:
            v, pos = work[-1]
            if pos < len(adj[v]):
                work[-1] = (v, pos + 1)
                w = adj[v][pos]
                if index[w] == -1:
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    on_stack[w] = True
                    work.append((w, 0))
                elif on_stack[w]:
                    low[v] = min(low[v], index[w])
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[v])
            if low[v] != index[v]:
                continue
            cid = len(comp_bits)
            members = []
            while True:
                w = stack.pop()
                on_stack[w] = False
                comp[w] = cid
                members.append(w)
                if w == v:
                    break
            bits = 0
            for w in members:
                bits |= 1 << w
            for w in members:
                for x in adj[w]:
                    if comp[x] != cid:
                        bits |= comp_bits[comp[x]]
            comp_bits.append(bits)
    return [comp_bits[comp[v]] for v in range(n)]


def _entails_all(premise: set, conclusion: set, n_vars: int) -> bool:
    """Every clause of `conclusion` follows from `premise`; a clause that is
    also a premise clause follows without propagation."""
    prop = None
    for clause in conclusion:
        if clause in premise:
            continue
        if prop is None:
            if all(len(c) <= 2 for c in premise):
                prop = TwoCnfPropagator(premise, n_vars)
            else:
                prop = Propagator(premise)
        if not prop.entails(clause):
            return False
    return True


# --- GF(2) -------------------------------------------------------------------


def _is_parity(arity: int, allowed: frozenset) -> bool:
    return len(allowed) == 1 << (arity - 1) and len({sum(t) % 2 for t in allowed}) == 1


def parity_rows(cnf: Cnf, langs: Languages) -> list[tuple[int, int]]:
    """Each clause as (coefficient bitmask, constant); its relation must be
    x1 + ... + xk = c over GF(2).  Repeated variables cancel."""
    rows = []
    for name, ids in cnf.clauses:
        arity, allowed = langs[cnf.language][name]
        if not _is_parity(arity, allowed):
            raise ValueError(f"relation {name} is not a parity constraint")
        coeffs = 0
        for v in ids:
            coeffs ^= 1 << v
        rows.append((coeffs, sum(next(iter(allowed))) % 2))
    return rows


def _reduce(basis: dict[int, tuple[int, int]], coeffs: int, const: int) -> tuple[int, int]:
    while coeffs:
        row = basis.get(coeffs.bit_length() - 1)
        if row is None:
            break
        coeffs ^= row[0]
        const ^= row[1]
    return coeffs, const


def _echelon(rows) -> tuple[dict[int, tuple[int, int]], bool, bool]:
    """Basis keyed by leading bit, whether every row was independent, and
    whether the system is consistent."""
    basis: dict[int, tuple[int, int]] = {}
    independent = consistent = True
    for coeffs, const in rows:
        coeffs, const = _reduce(basis, coeffs, const)
        if coeffs:
            basis[coeffs.bit_length() - 1] = (coeffs, const)
        else:
            independent = False
            consistent &= const == 0
    return basis, independent, consistent


def check_parity(inp: Cnf, out: Cnf, langs: Languages) -> str | None:
    """Same solution space (equal row spans with equal constants) and output
    rows independent, so the output has the minimum number of equations."""
    rows_in, rows_out = parity_rows(inp, langs), parity_rows(out, langs)
    basis_out, independent, consistent = _echelon(rows_out)
    if not consistent or not independent:
        return "output equations are dependent or inconsistent"
    kept = set(rows_out)
    for row in rows_in:
        if row not in kept and _reduce(basis_out, *row) != (0, 0):
            return "an input equation is outside the output span"
    if not kept <= set(rows_in):
        basis_in = _echelon(rows_in)[0]
        if any(_reduce(basis_in, *row) != (0, 0) for row in kept):
            return "an output equation is outside the input span"
    return None


# --- checks per output kind --------------------------------------------------


def check_cnf(inp_text: str, out_text: str, langs: Languages) -> str | None:
    """None when the minimized CNF is equivalent to its input, else why not."""
    inp, out = read_cnf(inp_text), read_cnf(out_text)
    if out.language != inp.language:
        return f"output language {out.language} differs from input {inp.language}"
    names = set(inp.var_names) | set(out.var_names)
    if len(names) <= MAX_TABLE_VARS:
        t_in, t_out = _tables(inp, out, langs)
        return None if t_in == t_out else "truth tables differ"
    if set(out.var_names) != set(inp.var_names):
        return "output variables differ from input variables"
    out = _rename(out, inp.var_names)
    if all(_is_parity(a, t) for a, t in langs[inp.language].values()):
        return check_parity(inp, out, langs)
    a, b = literal_clauses(inp, langs), literal_clauses(out, langs)
    if not _entails_all(a, b, len(inp.var_names)):
        return "input does not entail an output clause"
    if not _entails_all(b, a, len(inp.var_names)):
        return "output does not entail an input clause"
    return None


def _rename(cnf: Cnf, var_names: list[str]) -> Cnf:
    index = {name: i for i, name in enumerate(var_names)}
    clauses = [(rel, tuple(index[cnf.var_names[v]] for v in ids)) for rel, ids in cnf.clauses]
    return Cnf(cnf.language, list(var_names), clauses)


def check_tree(inp_text: str, out_text: str, funcs: dict, measure: str, reported: int) -> str | None:
    """The witness uses only basis functions, has the reported size under
    `measure`, and has the same truth table as the input formula."""
    inp, out = read_tree(inp_text), read_tree(out_text)
    size = len(tree_leaves(out)) if measure == "literals" else tree_gates(out)
    if size != reported:
        return f"witness size {size} != reported minimum {reported}"
    todo = [out]
    while todo:
        node = todo.pop()
        if isinstance(node, tuple):
            if node[0] not in funcs or len(node) - 1 != funcs[node[0]][0]:
                return f"witness uses {node[0]!r} outside the basis"
            todo.extend(node[1:])
    names = sorted(set(tree_leaves(inp)) | set(tree_leaves(out)))
    # a witness may give irrelevant leaves fresh names, a few beyond the input's
    if len(names) > MAX_TABLE_VARS + 4:
        return f"{len(names)} variables is too many for a truth-table check"
    index = {name: i for i, name in enumerate(names)}
    masks = var_masks(len(names))
    full = (1 << (1 << len(names))) - 1
    if tree_table(inp, funcs, index, masks, full) != tree_table(out, funcs, index, masks, full):
        return "witness truth table differs from the input"
    return None
