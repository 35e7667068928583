"""Command-line front end: JSON spec/codes files in, canonical reports out.

Reports are printed to stdout as JSON with sorted keys and no timestamps, so
identical inputs always produce byte-identical output.  Diagnostics go to
stderr.  Exit codes: 0 verified/holds, 1 counterexample found or property
fails, 2 hypotheses unmet, 3 guard exceeded or unsupported construction,
4 input error.
"""

import argparse
import dataclasses
import functools
import json
import os
import sys
from typing import Optional

from . import REPORT_VERSION
from .codes import (
    code_generate,
    code_map_make,
    extension_search,
    map_preserves,
    weight_profile,
)
from .errors import EplabError, Guards, InputError, check_guard
from .modules import (
    Module,
    automorphism_group,
    module_make,
    partition,
    socle_report,
)
from .rings import (
    Ring,
    exponent_of_addition,
    is_left_pir,
    is_right_pir,
    jacobson_radical,
    ring_make,
    simple_classes,
    submodules_enumerate,
    units,
)
from .theorems import (
    build_counterexample,
    verify_all,
    verify_midway,
    verify_necessity,
    verify_orbit_lemma,
    verify_sufficiency,
)

CONVENTIONS = {
    "indices": "all elements are 0-based indices into their structure's element list",
    "pir": "principal ideal tests and generators are for left ideals Rg",
    "character_action": "(r.chi)(x) = chi(xr)",
    "pseudo_injective": (
        "every injective linear map from a submodule into the module extends "
        "to an endomorphism of the module"
    ),
    "matrix_encoding": "row-major digits base q, top-left entry most significant",
}


# ---------------------------------------------------------------------------
# input loading


# a spec or codes file nests a few levels deep; building its descriptors and
# echoing them recurse once per level, which a few hundred levels exhaust
MAX_JSON_DEPTH = 100


def _load_json(path: str) -> dict:
    def reject(number: str):
        # reports hold no floats, and every number a spec gives is an integer
        raise InputError(f"{path} holds the non-integer number {number}")

    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle, parse_float=reject, parse_constant=reject)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        # also bytes that are not UTF-8, too many digits, or too deep nesting
        raise InputError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise InputError(f"{path} must hold a JSON object")
    level = [data]
    for _ in range(MAX_JSON_DEPTH):
        level = [
            v
            for c in level
            for v in (c.values() if isinstance(c, dict) else c)
            if isinstance(v, (dict, list))
        ]
    if level:
        raise InputError(f"{path} nests objects and lists more than {MAX_JSON_DEPTH} deep")
    return data


def _parse_bounds(data: dict) -> dict:
    bounds = data.get("bounds", {})
    if not isinstance(bounds, dict):
        raise InputError("bounds must be an object")
    out = {}
    for key in ("max_n", "max_gens"):
        if key in bounds:
            value = bounds[key]
            if type(value) is not int or value < 1:
                raise InputError(f"bounds.{key} must be a positive integer")
            out[key] = value
    unknown = set(bounds) - {"max_n", "max_gens"}
    if unknown:
        raise InputError(f"unknown bounds keys: {sorted(unknown)}")
    return out


def _build_pair(data: dict, guards: Guards) -> tuple[Ring, Optional[Module]]:
    if "ring" not in data:
        raise InputError("spec needs a 'ring' descriptor")
    ring = ring_make(data["ring"], guards)
    module = None
    if data.get("module") is not None:
        module = module_make(ring, data["module"], guards)
    return ring, module


def load_spec(path: str, guards: Guards) -> tuple[Ring, Optional[Module], dict, dict]:
    """Parse a spec file into (ring, module, bounds, raw echo)."""
    data = _load_json(path)
    ring, module = _build_pair(data, guards)
    bounds = _parse_bounds(data)
    echo = {"ring": data["ring"], "module": data.get("module"), "bounds": bounds}
    return ring, module, bounds, echo


def load_codes(path: str, guards: Guards):
    """Parse a codes file into (alphabet, length, named codes, maps, echo)."""
    data = _load_json(path)
    for key in ("alphabet", "length", "codes"):
        if key not in data:
            raise InputError(f"codes file needs a '{key}' field")
    alphabet_ref = data["alphabet"]
    if isinstance(alphabet_ref, str):
        ref_path = alphabet_ref
        if not os.path.isabs(ref_path):
            ref_path = os.path.join(os.path.dirname(os.path.abspath(path)), ref_path)
        spec = _load_json(ref_path)
    elif isinstance(alphabet_ref, dict):
        spec = alphabet_ref
    else:
        raise InputError("alphabet must be a spec file path or an inline object")
    ring, module = _build_pair(spec, guards)
    if module is None:
        raise InputError("the alphabet spec needs a 'module' descriptor")

    length = data["length"]
    if type(length) is not int or length < 1:
        raise InputError("length must be a positive integer")
    if not isinstance(data["codes"], list):
        raise InputError("codes must be a list")
    codes = {}
    for entry in data["codes"]:
        if not isinstance(entry, dict) or "name" not in entry or "generators" not in entry:
            raise InputError("each code needs 'name' and 'generators'")
        name = entry["name"]
        if not isinstance(name, str):
            raise InputError(f"code name {name!r} must be a string")
        if name in codes:
            raise InputError(f"duplicate code name {name!r}")
        codes[name] = code_generate(module, length, entry["generators"], guards)
    if not isinstance(data.get("maps", []), list):
        raise InputError("maps must be a list")
    maps = []
    for entry in data.get("maps", []):
        if not isinstance(entry, dict):
            raise InputError("each map must be an object")
        for key in ("from", "to", "gen_images"):
            if key not in entry:
                raise InputError(f"each map needs a '{key}' field")
        src, dst = entry["from"], entry["to"]
        if not (isinstance(src, str) and isinstance(dst, str) and src in codes and dst in codes):
            raise InputError(f"map references unknown code {src!r} or {dst!r}")
        cmap = code_map_make(codes[src], codes[dst], entry["gen_images"], guards)
        maps.append((src, dst, cmap))
    echo = {
        "alphabet": {"ring": spec["ring"], "module": spec["module"]},
        "length": length,
        "codes": [{"name": e["name"], "generators": e["generators"]} for e in data["codes"]],
        "maps": [
            {"from": e["from"], "to": e["to"], "gen_images": e["gen_images"]}
            for e in data.get("maps", [])
        ],
    }
    return module, length, codes, maps, echo


# ---------------------------------------------------------------------------
# report plumbing


_quote = json.encoder.encode_basestring_ascii


_CHUNK_DIGITS = 500  # below 640, the least limit sys.set_int_max_str_digits accepts
_CHUNK = 10**_CHUNK_DIGITS


def _int_repr(n: int) -> str:
    """int.__repr__(n), exactly, also for an int with more digits than the
    interpreter converts at once: such an int is written in chunks."""
    if -_CHUNK < n < _CHUNK:
        return int.__repr__(n)
    if n < 0:
        return "-" + _int_repr(-n)
    chunks = []
    while n >= _CHUNK:
        n, low = divmod(n, _CHUNK)
        chunks.append(int.__repr__(low).zfill(_CHUNK_DIGITS))
    return int.__repr__(n) + "".join(reversed(chunks))


def _dumps(obj, indent: str = "\n", memo: Optional[dict] = None) -> str:
    """json.dumps(obj, sort_keys=True, indent=2), byte for byte, for the types
    reports hold: dicts with str keys, lists, tuples, str, int, bool and None.
    Any other type raises TypeError.  An int value, though not an entry of
    a list of plain ints, may have more digits than the interpreter converts
    to a string at once.  A list of plain ints is one join.  A
    list of lists met again at the same indent within one call, as a shared
    listing is, is taken from the memo, keyed by (id, indent): obj keeps
    every such list alive.  Lists of dicts, long and unshared, are not kept."""
    memo = {} if memo is None else memo
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        key = (id(obj), indent)
        if key in memo:
            return memo[key]
        inner = indent + "  "
        types = set(map(type, obj))
        if types == {int}:
            return "[" + inner + ("," + inner).join(map(int.__repr__, obj)) + indent + "]"
        out = "[" + inner + ("," + inner).join([_dumps(x, inner, memo) for x in obj]) + indent + "]"
        if dict not in types:
            memo[key] = out
        return out
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = indent + "  "
        body = [_quote(k) + ": " + _dumps(obj[k], inner, memo) for k in sorted(obj)]
        return "{" + inner + ("," + inner).join(body) + indent + "}"
    if isinstance(obj, str):
        return _quote(obj)
    if obj is None:
        return "null"
    if obj is True or obj is False:
        return "true" if obj else "false"
    if isinstance(obj, int):
        return _int_repr(obj)
    raise TypeError(f"a report cannot hold {type(obj).__name__} values")


def _emit(command: str, inputs: dict, guards: Guards, result: dict) -> None:
    report = {
        "version": REPORT_VERSION,
        "command": command,
        "inputs": inputs,
        "guards": dataclasses.asdict(guards),
        "conventions": CONVENTIONS,
        "result": result,
    }
    sys.stdout.write(_dumps(report) + "\n")


def _need_module(module: Optional[Module], command: str) -> Module:
    if module is None:
        raise InputError(f"{command} requires a 'module' descriptor in the spec")
    return module


def _resolve_bounds(args, bounds: dict, guards: Guards) -> tuple[Optional[int], Optional[int]]:
    """A flag sets its guard and its bound together; a bound taken from the
    spec must stay within its guard."""
    for key in ("max_n", "max_gens"):
        if getattr(args, key) is None and key in bounds:
            check_guard(bounds[key], getattr(guards, key), f"bounds.{key}")
    max_n = args.max_n if args.max_n is not None else bounds.get("max_n")
    max_gens = args.max_gens if args.max_gens is not None else bounds.get("max_gens")
    return max_n, max_gens


# ---------------------------------------------------------------------------
# command handlers


def _cmd_ring_info(args, guards: Guards) -> int:
    ring, _, _, echo = load_spec(args.spec, guards)
    result = {
        "order": ring.order,
        "unit_count": len(units(ring)),
        "radical": list(jacobson_radical(ring).members),
        "left_ideal_count": len(submodules_enumerate(ring, guards)),
        "is_left_pir": is_left_pir(ring, guards),
        "is_right_pir": is_right_pir(ring, guards),
        "wedderburn_blocks": [{"mu": t.mu, "q": t.q} for t in simple_classes(ring, guards)],
        "additive_exponent": exponent_of_addition(ring),
    }
    _emit("ring-info", echo, guards, result)
    return 0


def _cmd_socle_report(args, guards: Guards) -> int:
    _, module, _, echo = load_spec(args.spec, guards)
    module = _need_module(module, "socle-report")
    report = socle_report(module, guards)
    result = report.as_json()
    result["socle_members"] = list(report.socle.members)
    _emit("socle-report", echo, guards, result)
    return 0


def _cmd_aut_group(args, guards: Guards) -> int:
    _, module, _, echo = load_spec(args.spec, guards)
    module = _need_module(module, "aut-group")
    group = automorphism_group(module, guards)
    result = {"order": group.order, "elements": [list(p) for p in group.elements]}
    _emit("aut-group", echo, guards, result)
    return 0


def _cmd_orbits(args, guards: Guards) -> int:
    _, module, _, echo = load_spec(args.spec, guards)
    module = _need_module(module, "orbits")
    labels = partition(module, args.by, guards=guards)
    classes: dict = {}
    for a, label in enumerate(labels):
        classes.setdefault(str(label), []).append(a)
    result = {"kind": args.by, "labels": list(labels), "classes": classes}
    _emit("orbits", dict(echo, by=args.by), guards, result)
    return 0


def _cmd_weights(args, guards: Guards) -> int:
    module, _, codes, _, echo = load_codes(args.codes, guards)
    kinds = ("hamming", "swc", "aw") if args.kind == "all" else (args.kind,)
    listing = []
    for name in sorted(codes):
        code = codes[name]
        words = []
        for word in code.elements:
            profiles = {kind: weight_profile(module, word, kind, guards=guards) for kind in kinds}
            words.append({"word": list(word), "profiles": profiles})
        listing.append({"name": name, "size": code.size, "words": words})
    _emit("weights", dict(echo, kind=args.kind), guards, {"codes": listing})
    return 0


def _cmd_ep_counterexample(args, guards: Guards) -> int:
    pack = build_counterexample(args.m, args.k, args.q, guards)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(_dumps(pack.as_json()) + "\n")
        except OSError as exc:
            raise InputError(f"cannot write {args.out}: {exc}") from exc
    inputs = {"m": args.m, "k": args.k, "q": args.q}
    _emit("ep-counterexample", inputs, guards, {"pack": pack.as_json()})
    return 1


def _cmd_ep_check_extension(args, guards: Guards) -> int:
    module, _, _, maps, echo = load_codes(args.codes, guards)
    if not maps:
        raise InputError("the codes file defines no maps to check")
    results = []
    all_extend = True
    for src, dst, cmap in maps:
        search = extension_search(cmap, guards=guards)
        extends = search.transform is not None
        all_extend = all_extend and extends
        entry = {
            "from": src,
            "to": dst,
            "preserves": {
                kind: map_preserves(cmap, kind, guards=guards)
                for kind in ("hamming", "swc", "aw")
            },
            "extends": extends,
            "transform": None
            if search.transform is None
            else {
                "sigma": list(search.transform.sigma),
                "taus": [list(t) for t in search.transform.taus],
            },
            "nodes": search.nodes,
            "candidate_space": search.candidate_space,
            "group_order": search.group_order,
        }
        results.append(entry)
    _emit("ep-check-extension", echo, guards, {"maps": results})
    return 0 if all_extend else 1


def _verdict_command(command: str, runner):
    def handler(args, guards: Guards) -> int:
        _, module, bounds, echo = load_spec(args.spec, guards)
        module = _need_module(module, command)
        max_n, max_gens = _resolve_bounds(args, bounds, guards)
        report = runner(module, guards, max_n, max_gens)
        _emit(command, dict(echo, max_n=max_n, max_gens=max_gens), guards, report.as_json())
        return report.exit_code

    return handler


_cmd_verify_orbit_lemma = _verdict_command(
    "verify-orbit-lemma", lambda module, guards, _n, _g: verify_orbit_lemma(module, guards)
)
_cmd_verify_midway = _verdict_command("verify-midway", verify_midway)
_cmd_verify_sufficiency = _verdict_command("verify-sufficiency", verify_sufficiency)
_cmd_verify_necessity = _verdict_command(
    "verify-necessity", lambda module, guards, _n, _g: verify_necessity(module, guards)
)
_cmd_verify_all = _verdict_command("verify-all", verify_all)


# ---------------------------------------------------------------------------
# argument parsing


@functools.cache  # built on first use; parsing leaves a parser unchanged
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eplab",
        description="Finite-scope verifiers for linear codes over module alphabets.",
    )
    guard_flags = argparse.ArgumentParser(add_help=False)
    for field in dataclasses.fields(Guards):
        guard_flags.add_argument(
            "--" + field.name.replace("_", "-"), type=int, default=None, dest=field.name
        )
    spec_flag = argparse.ArgumentParser(add_help=False)
    spec_flag.add_argument("--spec", required=True, help="path to a JSON spec file")
    codes_flag = argparse.ArgumentParser(add_help=False)
    codes_flag.add_argument("--codes", required=True, help="path to a JSON codes file")

    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("ring-info", parents=[guard_flags, spec_flag])
    sub.add_parser("socle-report", parents=[guard_flags, spec_flag])
    sub.add_parser("aut-group", parents=[guard_flags, spec_flag])
    orbits = sub.add_parser("orbits", parents=[guard_flags, spec_flag])
    orbits.add_argument("--by", choices=("orbit", "annihilator"), default="orbit")
    weights = sub.add_parser("weights", parents=[guard_flags, codes_flag])
    weights.add_argument("--kind", choices=("hamming", "swc", "aw", "all"), default="all")
    epc = sub.add_parser("ep-counterexample", parents=[guard_flags])
    epc.add_argument("--m", type=int, required=True)
    epc.add_argument("--k", type=int, required=True)
    epc.add_argument("--q", type=int, required=True)
    epc.add_argument("--out", default=None, help="also write the pack to this file")
    sub.add_parser("ep-check-extension", parents=[guard_flags, codes_flag])
    for name in ("verify-orbit-lemma", "verify-midway", "verify-sufficiency",
                 "verify-necessity", "verify-all"):
        sub.add_parser(name, parents=[guard_flags, spec_flag])
    return parser


_HANDLERS = {
    "ring-info": _cmd_ring_info,
    "socle-report": _cmd_socle_report,
    "aut-group": _cmd_aut_group,
    "orbits": _cmd_orbits,
    "weights": _cmd_weights,
    "ep-counterexample": _cmd_ep_counterexample,
    "ep-check-extension": _cmd_ep_check_extension,
    "verify-orbit-lemma": _cmd_verify_orbit_lemma,
    "verify-midway": _cmd_verify_midway,
    "verify-sufficiency": _cmd_verify_sufficiency,
    "verify-necessity": _cmd_verify_necessity,
    "verify-all": _cmd_verify_all,
}


def _guards_from(args) -> Guards:
    names = [field.name for field in dataclasses.fields(Guards)]
    return Guards.from_env(**{name: getattr(args, name, None) for name in names})


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 4
    try:
        guards = _guards_from(args)
        return _HANDLERS[args.command](args, guards)
    except EplabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
