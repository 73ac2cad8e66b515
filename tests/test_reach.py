"""Every statement of the package is reached by a CLI campaign, or is named here.

A fresh interpreter traces ``src/qccnn`` line by line while it runs one
small campaign of every command; fresh, because earlier tests warm the
package's caches (``build_ansatz``, ``_plan``, ``_make_parser``) and a warm
cache would hide the statements that fill it.  A statement counts as reached
when a line of its own ran: all of a simple statement's lines, or a compound
statement's header (from its first decorator to its body).  Lines that hold
no bytecode, such as docstrings, are left out.

Failure paths need no command here: ``raise`` statements, ``except`` bodies
and blocks that end in a raise are exempt.  Every other unreached statement
is named in ``EXEMPT`` with its reason, so code that only tests reach cannot
grow unseen, and the list must shrink when its code goes or gets reached.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "qccnn"
FRONTS = ("conv", "midcircuit-rx", "midcircuit-ry", "ancilla-cy", "ancilla-cz",
          "mod-a", "mod-b", "mod-c", "select-sign", "select-tanh", "classical")

# (function, statement text) -> why no command reaches it.  The text is the
# stripped first line of a statement; a compound statement names its body,
# and None names every statement of the function.
EXEMPT = {
    ("run_deferred_batch", None):
        "only the benchmark calls it, through the name each module imports",
    ("score_batch", None): "only the benchmark calls it",
    ("_rotations", "elif op.param_slot is None:"):
        "no built body holds a constant-angle rotation; the benchmark's oracle reads the angle",
    ("_fold_parity_gadget", 'if not body or body[-1] != GateOp("H", (t,)):'):
        "a near miss: every built circuit whose top qubit starts in |+> ends in its gadget",
    ("_fold_parity_gadget",
     "if start == len(body) - 1 or any(t in op.targets for op in body[:start]):"):
        "a near miss, as the H check above",
    ("effective_dimension_from_fims", "if mean_trace <= 0.0:"):
        "a zero trace needs FIMs that are all zero, which no built circuit gives",
}

# The traced interpreter: argv[1] is the package directory and argv[2] the
# campaign, a JSON list of (argv, environment); its last stdout line lists the lines that ran.
_TRACER = """
import json, os, runpy, sys
package, campaign = os.path.join(sys.argv[1], ""), json.loads(sys.argv[2])
ran = set()

def line(frame, event, arg):
    if event == "line":
        ran.add((frame.f_code.co_filename, frame.f_lineno))
    return line

sys.settrace(lambda frame, event, arg:
             line if frame.f_code.co_filename.startswith(package) else None)
for argv, env in campaign:  # each as `python -m qccnn.cli` runs it
    os.environ.update(env)
    sys.argv = ["qccnn", *argv]
    try:
        runpy.run_module("qccnn.cli", run_name="__main__")
    except SystemExit as exc:
        if exc.code != 0:
            raise SystemExit(f"{argv} exited {exc.code}")
    for name in env:
        del os.environ[name]
sys.settrace(None)
print(json.dumps(sorted(ran)))
"""


def _campaign(tmp: Path) -> list:
    """(argv, environment) of every command, small enough to run in about a second."""
    data = "synthetic:size=4,train_n=2,val_n=2"
    archive = tmp / "archive.npz"
    rng = np.random.default_rng(0)
    np.savez(archive, train_images=rng.integers(0, 256, (2, 4, 4), dtype=np.uint8),
             train_labels=np.array([0, 1], dtype=np.uint8),
             val_images=rng.integers(0, 256, (2, 4, 4), dtype=np.uint8),
             val_labels=np.array([1, 0], dtype=np.uint8))
    config = tmp / "run.cfg"
    config.write_text("# a comment line\nclassical_relu = no\nepochs = 1\n")
    train = ["train", "--seeds", "0", "--batch-size", "2"]
    campaign = [([*train, "--ansatz", front, "--data", data, "--epochs", "1",
                  "--out", f"runs/{front}"], {}) for front in FRONTS]
    campaign += [
        ([*train, "--config", str(config), "--data", str(archive), "--out", "runs/archive"], {}),
        ([*train, "--ansatz", "classical", "--classical-relu", "--data", data, "--epochs", "3",
          "--out", "runs/relu"], {"QCCNN_STOP_AT_TRAIN_ACC": "0"}),
    ]
    campaign += [(["eval", f"runs/{front}/checkpoint_seed0.json", "--data", data], {})
                 for front in FRONTS]
    ed = ["ed", "--seeds", "0", "--theta-samples", "1", "--data-samples", "2", "--out", "ed"]
    campaign += [(ed, {}), ([*ed, "--ed-inputs", data], {})]  # the second reads the first's table
    campaign.append((["curves", "runs/conv", "runs/relu", "--out", "curves.csv",
                      "--svg", "curves.svg"], {}))
    return campaign


def _executable_lines(code) -> set:
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= _executable_lines(const)
    return lines


def _blocks(node):
    """The statement lists nested directly in `node`, each with whether it is an except body."""
    for name in ("body", "orelse", "finalbody"):
        block = getattr(node, name, None)
        if block and isinstance(block[0], ast.stmt):
            yield block, False
    for handler in getattr(node, "handlers", ()):
        yield handler.body, True


def _statements(path: Path):
    """(function, text, own lines, exempt, named) of each statement of the module at `path`.

    `exempt` marks a raise, or a statement in an except body or in a block
    that ends in a raise; `named` is the EXEMPT key that covers it, or None.
    """
    source = path.read_text(encoding="utf-8")
    lines = source.splitlines()
    executable = _executable_lines(compile(source, str(path), "exec"))

    def walk(block, function, exempt, named):
        for stmt in block:
            first = min([stmt.lineno, *(d.lineno for d in getattr(stmt, "decorator_list", ()))])
            blocks = list(_blocks(stmt))
            last = blocks[0][0][0].lineno - 1 if blocks else stmt.end_lineno
            own = executable & set(range(first, last + 1))
            text = lines[stmt.lineno - 1].strip()
            key = (function, text) if (function, text) in EXEMPT else None
            if own:  # a named compound statement is a guard: it may run, its body may not
                covered = named or (None if blocks else key)
                yield function, text, own, exempt or isinstance(stmt, ast.Raise) or (
                    bool(blocks) and key is not None), covered
            scope, scope_named = function, named
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                scope = stmt.name
                scope_named = named or ((scope, None) if (scope, None) in EXEMPT else None)
            for child, is_handler in blocks:
                child_named = scope_named or (key if child is stmt.body else None)
                child_exempt = exempt or is_handler or isinstance(child[-1], ast.Raise)
                yield from walk(child, scope, child_exempt, child_named)

    yield from walk(ast.parse(source).body, "<module>", False, None)


def test_a_cli_campaign_reaches_every_statement(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent), "OPENBLAS_NUM_THREADS": "1"}
    done = subprocess.run(
        [sys.executable, "-c", _TRACER, str(PACKAGE), json.dumps(_campaign(tmp_path))],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    ran = {(Path(f).resolve(), line) for f, line in json.loads(done.stdout.splitlines()[-1])}
    unreached, named = [], {}
    for path in sorted(PACKAGE.glob("*.py")):
        for function, text, own, exempt, key in _statements(path):
            reached = any((path, line) in ran for line in own)
            where = f"{path.name}:{min(own)} {function}: {text}"
            if key is not None:
                named.setdefault(key, []).append((where, reached))
            elif not reached and not exempt:
                unreached.append(where)
    assert not unreached, "statements no command reaches:\n" + "\n".join(unreached)
    gone = [key for key in EXEMPT if key not in named]
    assert not gone, f"exemptions that name no statement: {gone}"
    now_reached = [where for found in named.values() for where, reached in found if reached]
    assert not now_reached, "exempted statements the campaign reaches:\n" + "\n".join(now_reached)
