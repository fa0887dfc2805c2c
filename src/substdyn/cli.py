"""Command-line front end.

Subcommands: analyze, classify, primitivize, complex, cohomology, cis,
extend, compare, corpus.  All reports are JSON with sorted keys, so equal
inputs and flags produce byte-identical output.

Exit codes: 0 success, 1 usage or internal error, 2 empty subshift,
3 wild input where a tame-only stage was requested, 4 edge budget exceeded.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from . import corpus as corpus_mod
from .apcomplex import (build_complex, complex_to_dot, induced_map,
                        h1_presentation, inverse_limit_presentation)
from .cis import (diagram_compare, enumerate_cis, extend_substitution, lattice_for,
                  lattice_to_dot)
from .classify import decide_tameness, is_minimal, minimality_table_length
from .collar import border_forcing_level, collar
from .core import Substitution, load_substitution, parse_substitution
from .errors import (EdgeBudgetError, EmptySubshiftError, NonClosureError,
                     RuleParseError, SubstdynError, WildInputError)
from .language import session, table_for
from .primitivize import primitivize

DEFAULT_MAX_EDGES = 5000


def _max_edges(args) -> int:
    if args.max_edges is not None:
        return args.max_edges
    env = os.environ.get("SUBSTDYN_MAX_EDGES")
    if not env:
        return DEFAULT_MAX_EDGES
    try:
        return int(env)
    except ValueError:
        raise SubstdynError(f"SUBSTDYN_MAX_EDGES must be an integer, "
                            f"not {env!r}") from None


def _check_options(args):
    """Read ``--radius`` as an integer (None for 'auto') and reject numeric
    options out of range, as usage errors, before any work."""
    radius = getattr(args, "radius", "auto")
    if radius != "auto" and not radius.isdecimal():
        raise SubstdynError(f"--radius must be 'auto' or an integer >= 0, not {radius!r}")
    args.radius = None if radius == "auto" else int(radius)
    for name in ("max_length", "verify_depth", "power"):
        value = getattr(args, name, None)
        if value is not None and value < 1:
            raise SubstdynError(f"--{name.replace('_', '-')} must be >= 1, not {value}")


def _emit(data, stream=None):
    (stream or sys.stdout).write(json.dumps(data, sort_keys=True, indent=2) + "\n")


def _word_list(sub, words):
    return sorted(sub.format_word(w) for w in words)


def _load(path: str) -> Substitution:
    if path == "-":
        return parse_substitution(sys.stdin.read())
    if path.startswith("corpus:"):
        name = path.split(":", 1)[1]
        if name not in corpus_mod.CORPUS:
            raise SubstdynError(f"unknown corpus entry {name!r} "
                                f"(see 'substdyn corpus list')")
        return corpus_mod.get(name)
    try:
        return load_substitution(path)
    except OSError as exc:
        raise SubstdynError(f"cannot read {path}: {exc}") from None


def _write_text(path: str, text: str):
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        raise SubstdynError(f"cannot write {path}: {exc.strerror or exc}") from None


def _classification_dict(sub, report):
    data = {
        "verdict": report.verdict,
        "empty_subshift": report.empty_subshift,
        "bounded": sorted(report.classification.bounded),
        "expanding": sorted(report.classification.expanding),
        "a_left": sorted(report.classification.a_left),
        "a_right": sorted(report.classification.a_right),
        "exact": report.exact,
    }
    if report.witness is not None:
        data["witness"] = {
            "letter": report.witness.letter,
            "side": report.witness.side,
            "period": report.witness.period,
            "periodic_word": sub.format_word(report.witness.periodic_word),
        }
    else:
        data["witness"] = None
    if report.bounded_legal_words is not None:
        data["bounded_legal_words"] = _word_list(sub, report.bounded_legal_words)
        data["n_sigma"] = report.n_sigma
    return data


def _substitution_dict(sub: Substitution):
    return {"alphabet": list(sub.alphabet),
            "rules": {a: sub.format_word(sub.rules[a]) for a in sub.alphabet}}


def _h1_dict(h1):
    return {
        "rank": h1.rank,
        "matrix": [list(r) for r in h1.matrix],
        "eventual_rank": h1.limit.eventual_rank,
        "unimodular_on_image": h1.limit.unimodular_on_image,
        "group": h1.limit.group_description,
    }


def _lattice_dict(lattice):
    nodes = []
    for node in lattice.nodes:
        nodes.append({
            "name": node.name,
            "edges": sorted(node.edges),
            "period": node.period,
            "h0_rank": node.h0_rank,
            "h1_rank": node.h1_rank,
            "quotient_h0_rank": node.quotient_h0,
            "quotient_h1_rank": node.quotient_h1_rank,
        })
    return {
        "power": lattice.power,
        "exact": lattice.exact,
        "node_count": len(lattice.nodes),
        "nodes": nodes,
        "order": sorted(lattice.order),
        "inclusion_h1_profile": lattice.inclusion_h1_profile(),
        "quotient_h1_profile": lattice.quotient_h1_profile(),
        "inclusion_arrows": sorted(lattice.inclusion_arrows,
                                   key=lambda a: (a["from"], a["to"])),
        "quotient_arrows": sorted(lattice.quotient_arrows,
                                  key=lambda a: (a["from"], a["to"])),
        "warnings": lattice.warnings,
    }


def _primitivization_dict(sub, result):
    if result.bypass is not None:
        return {"periodic_bypass": _substitution_dict(result.bypass)}
    data = {
        "seed_letter": result.derived.system.seed_letter,
        "power": result.derived.system.power,
        "return_words": [sub.format_word(v) for v in result.derived.system.return_words],
        "psi": _substitution_dict(result.derived.psi),
        "theta": _substitution_dict(result.conjugate.theta),
        "h": dict(sorted(result.conjugate.h.items())),
        "block_size": result.conjugate.p_block_size,
        "power_lift": result.conjugate.power_lift,
    }
    if result.verification is not None:
        data["verification"] = {
            "ok": result.verification.ok,
            "depth": result.verification.depth,
            "windows": result.verification.windows_checked,
            "checks": result.verification.checks,
        }
    return data


def cmd_classify(args):
    sub = _load(args.file)
    report = decide_tameness(sub)
    _emit({"input": _substitution_dict(sub),
           "classification": _classification_dict(sub, report)})
    if report.empty_subshift:
        return 2
    return 0 if report.tame else 3


def cmd_analyze(args):
    sub = _load(args.file)
    max_length = args.max_length or minimality_table_length(sub)
    table = table_for(sub, max_length, margin=args.margin)
    report = decide_tameness(sub)
    out = {
        "input": _substitution_dict(sub),
        "language": {
            "max_length": table.max_length,
            "stabilized_at": table.stabilized_at,
            "empty_subshift": table.empty_subshift,
            "legal_exact": table.legal_exact,
        },
        "classification": _classification_dict(sub, report),
        "minimality": None,
        "primitivization": None,
        "complex": None,
        "cis": None,
        "warnings": [],
    }
    if report.empty_subshift:
        _emit(out)
        return 2
    minimality = is_minimal(sub, table=table)
    out["minimality"] = {
        "verdict": minimality.verdict,
        "constant": minimality.constant,
        "reason": minimality.reason,
    }
    if not report.tame:
        if args.radius is not None:
            _emit(out)
            return 3
        out["warnings"].append("wild input: collaring stages skipped")
        try:
            out["primitivization"] = _primitivization_dict(sub, primitivize(sub))
        except SubstdynError as exc:
            out["warnings"].append(f"primitivization: {exc}")
        _emit(out)
        return 0
    if minimality.verdict != "no":
        try:
            out["primitivization"] = _primitivization_dict(sub, primitivize(sub))
        except (NonClosureError, SubstdynError) as exc:
            out["warnings"].append(f"primitivization: {exc}")
    radius = report.n_sigma if args.radius is None else args.radius
    try:
        lattice = lattice_for(sub, radius, max_letters=_max_edges(args))
    except EdgeBudgetError as exc:
        out["warnings"].append(str(exc))
        _emit(out)
        return 4
    collared, complex_ = lattice.collared, lattice.complex
    cell_map = induced_map(collared, complex_)
    h1 = h1_presentation(complex_, cell_map)
    forcing = border_forcing_level(collared) if radius >= report.n_sigma else None
    out["complex"] = {
        "radius": radius,
        "edges": len(complex_.edges),
        "vertices": complex_.vertex_count,
        "components": complex_.component_count,
        "h1": _h1_dict(h1),
        "forcing_level": forcing,
    }
    out["cis"] = _lattice_dict(lattice)
    _emit(out)
    return 0


def cmd_primitivize(args):
    sub = _load(args.file)
    if decide_tameness(sub).empty_subshift:
        print("error: empty subshift", file=sys.stderr)
        return 2
    result = primitivize(sub, depth=args.verify_depth)
    out_dir = args.out_dir or "."
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        print(f"error: cannot create output directory: {exc}", file=sys.stderr)
        return 1
    _emit(_primitivization_dict(sub, result))
    stem = os.path.splitext(os.path.basename(args.file))[0] if args.file != "-" \
        else "substitution"
    stem = stem.replace("corpus:", "")
    if result.bypass is not None:
        outputs = [("primitive", result.bypass)]
    else:
        outputs = [(kind, rule) for kind, rule in (("psi", result.derived.psi),
                                                   ("theta", result.conjugate.theta))
                   if args.emit in (kind, "both")]
    for kind, rule in outputs:
        path = os.path.join(out_dir, f"{stem}.{kind}.txt")
        _write_text(path, rule.to_text())
        print(f"wrote {path}", file=sys.stderr)
    return 0


def _tame_radius(args, sub):
    """The radius a tame-only command collars at: ``--radius``, else n_sigma."""
    report = decide_tameness(sub)
    if report.empty_subshift:
        raise EmptySubshiftError("empty subshift")
    if not report.tame:
        raise WildInputError("wild input")
    return report.n_sigma if args.radius is None else args.radius


def cmd_complex(args):
    sub = _load(args.file)
    try:
        collared = collar(sub, _tame_radius(args, sub), max_letters=_max_edges(args))
    except EmptySubshiftError:
        print("error: empty subshift", file=sys.stderr)
        return 2
    except WildInputError:
        print("error: wild input; no tame collaring exists", file=sys.stderr)
        return 3
    complex_ = build_complex(collared)
    cell_map = induced_map(collared, complex_)
    h1 = h1_presentation(complex_, cell_map)
    out = {
        "radius": collared.radius,
        "edges": sorted(complex_.edges),
        "vertices": list(complex_.graph.vertex_labels),
        "components": complex_.component_count,
        "h1": _h1_dict(h1),
    }
    _emit(out)
    if args.dot:
        highlights = {}
        if args.color_cis:
            palette = ["blue", "red", "darkgreen", "orange", "purple", "brown"]
            lattice = enumerate_cis(collared)
            proper = [n for n in lattice.nodes if n.edges and n.name != "omega"]
            for i, node in enumerate(sorted(proper, key=lambda n: len(n.edges))):
                for e in sorted(node.edges):
                    highlights.setdefault(e, palette[i % len(palette)])
        _write_text(args.dot, complex_to_dot(complex_, highlights or None))
        print(f"wrote {args.dot}", file=sys.stderr)
    return 0


def cmd_cohomology(args):
    sub = _load(args.file)
    try:
        pres = inverse_limit_presentation(sub, radius=args.radius,
                                          max_letters=_max_edges(args))
    except EmptySubshiftError:
        print("error: empty subshift", file=sys.stderr)
        return 2
    except WildInputError:
        print("error: wild input", file=sys.stderr)
        return 3
    _emit({
        "radius": pres.collared.radius,
        "n_sigma": pres.n_sigma,
        "forcing_level": pres.forcing_level,
        "recognisable": pres.recognisable,
        "edges": len(pres.complex.edges),
        "vertices": pres.complex.vertex_count,
        "components": pres.complex.component_count,
        "h1": _h1_dict(pres.h1),
    })
    return 0


def cmd_cis(args):
    sub = _load(args.file)
    try:
        radius = _tame_radius(args, sub)
    except EmptySubshiftError:
        print("error: empty subshift", file=sys.stderr)
        return 2
    except WildInputError:
        print("error: wild input; invariant subspaces need a tame substitution",
              file=sys.stderr)
        return 3
    lattice = lattice_for(sub, radius, max_letters=_max_edges(args))
    _emit(_lattice_dict(lattice))
    if args.dot:
        _write_text(args.dot, lattice_to_dot(lattice))
        print(f"wrote {args.dot}", file=sys.stderr)
    return 0


def _parse_inject(text: str):
    """b->0:4,5;c->1:2,3 style: handle letter, target letter and 1-based
    positions inside the image of the target."""
    injection = {}
    positions = {}
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        head, _, tail = chunk.partition("->")
        letter = head.strip()
        target, _, pos = tail.partition(":")
        injection[letter] = target.strip()
        if pos.strip():
            try:
                positions[letter] = tuple(int(x) for x in pos.split(","))
            except ValueError:
                raise SubstdynError(f"--inject positions for {letter!r} must be "
                                    f"integers, not {pos.strip()!r}") from None
    return injection, (positions or None)


def cmd_extend(args):
    base = _load(args.base)
    handle = _load(args.psi)
    injection, positions = _parse_inject(args.inject)
    extended = extend_substitution(base, handle, injection,
                                   subsequences=positions, power=args.power)
    sys.stdout.write(extended.to_text())
    return 0


def cmd_compare(args):
    lattices = []
    for path in (args.first, args.second):
        sub = _load(path)
        report = decide_tameness(sub)
        if report.empty_subshift:
            print(f"error: {path}: empty subshift", file=sys.stderr)
            return 2
        if not report.tame:
            print(f"error: {path}: wild input", file=sys.stderr)
            return 3
        radius = report.n_sigma if args.radius is None else args.radius
        lattices.append(lattice_for(sub, radius, max_letters=_max_edges(args)))
    comparison = diagram_compare(*lattices)
    _emit({
        "shape_isomorphic": comparison.shape_isomorphic,
        "profiles_match": comparison.profiles_match,
        "distinguishable": comparison.distinguishable,
        "witness": comparison.witness,
        "first_profile": lattices[0].inclusion_h1_profile(),
        "second_profile": lattices[1].inclusion_h1_profile(),
    })
    return 0


def cmd_corpus(args):
    if args.action == "list":
        for name in corpus_mod.names():
            print(f"{name}: {corpus_mod.CORPUS[name].note}")
        return 0
    names = args.names or corpus_mod.names()
    failures = 0
    for name in names:
        print(f"== {name} ==", file=sys.stderr)
        ns = argparse.Namespace(file=f"corpus:{name}", radius=None,
                                max_length=None, margin=None,
                                max_edges=args.max_edges)
        try:
            # one session per entry, so no entry's tables outlive its analysis
            with session():
                code = cmd_analyze(ns)
        except SubstdynError as exc:
            print(f"{name}: error: {exc}", file=sys.stderr)
            code = 1
        if code not in (0, 2, 3):
            failures += 1
    return 1 if failures else 0


@functools.cache
def build_parser():
    parser = argparse.ArgumentParser(
        prog="substdyn",
        description="Analysis of one-dimensional substitution subshifts and "
                    "tiling spaces, including non-primitive substitutions.")
    parser.add_argument("--max-edges", type=int, default=None,
                        help="abort collared alphabets larger than this "
                             "(default 5000; env SUBSTDYN_MAX_EDGES)")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, radius=True):
        p.add_argument("file", help="substitution file, '-' for stdin, or corpus:<name>")
        if radius:
            p.add_argument("--radius", default="auto",
                           help="collaring radius (default: bounded-word bound)")

    p = sub.add_parser("analyze", help="full pipeline report")
    add_common(p)
    p.add_argument("--max-length", type=int, default=None)
    p.add_argument("--margin", type=int, default=None)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("classify", help="tame/wild classification")
    add_common(p, radius=False)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("primitivize", help="rewrite as a primitive substitution")
    add_common(p, radius=False)
    p.add_argument("--emit", choices=("psi", "theta", "both"), default="both")
    p.add_argument("--verify-depth", type=int, default=6)
    p.add_argument("--out-dir", default=None)
    p.set_defaults(func=cmd_primitivize)

    p = sub.add_parser("complex", help="collared Anderson-Putnam complex")
    add_common(p)
    p.add_argument("--dot", default=None, help="write a DOT rendering here")
    p.add_argument("--color-cis", action="store_true",
                   help="colour edges by invariant-subspace membership")
    p.set_defaults(func=cmd_complex)

    p = sub.add_parser("cohomology", help="inverse-limit presentation and H1")
    add_common(p)
    p.set_defaults(func=cmd_cohomology)

    p = sub.add_parser("cis", help="lattice of closed invariant subspaces")
    add_common(p)
    p.add_argument("--dot", default=None, help="write a Hasse diagram here")
    p.set_defaults(func=cmd_cis)

    p = sub.add_parser("extend", help="extend a primitive substitution by another")
    p.add_argument("base")
    p.add_argument("psi")
    p.add_argument("--inject", required=True,
                   help="e.g. 'a->0:4,5' (handle letter -> carrier letter : "
                        "1-based interior positions)")
    p.add_argument("--power", type=int, default=None)
    p.set_defaults(func=cmd_extend)

    p = sub.add_parser("compare", help="compare invariant-subspace diagrams")
    p.add_argument("first")
    p.add_argument("second")
    p.add_argument("--radius", default="auto")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("corpus", help="list or run the bundled corpus")
    p.add_argument("action", choices=("list", "run"))
    p.add_argument("names", nargs="*")
    p.set_defaults(func=cmd_corpus)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_options(args)
        with session():
            return args.func(args)
    except RuleParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 1
    except EdgeBudgetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except SubstdynError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
