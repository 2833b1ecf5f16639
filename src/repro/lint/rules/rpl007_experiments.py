"""RPL007: registered experiments must ship a ``build_batch`` hook.

``build_batch`` is the only evaluation hook the :class:`repro.api.Runner`
calls, with contiguous chunks of accepted seeds on every backend (the
optional ``accept_batch`` gate only judges seeds; it evaluates nothing).
A registration without it cannot run on any backend, so the rule has no
opt-out -- every
``@register_experiment`` class must define ``build_batch``, and every
``register_experiment(ExperimentDef(...))`` call must pass it by keyword.
"""

from __future__ import annotations

import ast

from ..base import Rule, RuleContext, dotted_name, register_rule

_REGISTER_NAME = "register_experiment"


def _is_register_decorator(node: ast.AST) -> bool:
    target = node.func if isinstance(node, ast.Call) else node
    dotted = dotted_name(target)
    return dotted is not None and dotted.split(".")[-1] == _REGISTER_NAME


def _class_defines(node: ast.ClassDef, attr: str) -> bool:
    for stmt in node.body:
        if isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                if isinstance(target, ast.Name) and target.id == attr:
                    return True
        elif isinstance(stmt, ast.AnnAssign):
            if isinstance(stmt.target, ast.Name) and stmt.target.id == attr:
                return True
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if stmt.name == attr:
                return True
    return False


@register_rule
class ExperimentBatchRule(Rule):
    code = "RPL007"
    name = "experiment-build-batch"
    description = "registered experiments must ship a build_batch hook"

    @classmethod
    def applies(cls, ctx: RuleContext) -> bool:
        return ctx.config.is_experiment_module(ctx.logical_path)

    def visit_ClassDef(self, node: ast.ClassDef):
        if any(_is_register_decorator(d) for d in node.decorator_list):
            if not _class_defines(node, "build_batch"):
                self.report(
                    node,
                    f"registered experiment `{node.name}` ships no "
                    "`build_batch`, the only evaluation hook the Runner "
                    "calls; add it (a single topology is a batch of one)",
                )
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call):
        # register_experiment(ExperimentDef(...)) direct-call form.
        if _is_register_decorator(node) and node.args:
            arg = node.args[0]
            if isinstance(arg, ast.Call):
                kwargs = {kw.arg for kw in arg.keywords}
                if "build_batch" not in kwargs:
                    self.report(
                        node,
                        "registered experiment definition ships no "
                        "`build_batch`, the only evaluation hook the Runner "
                        "calls; pass it to ExperimentDef",
                    )
        self.generic_visit(node)
