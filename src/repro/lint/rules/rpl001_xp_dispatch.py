"""RPL001: no raw numpy compute inside array-API-dispatched scopes.

The modules (or functions) listed in ``LintConfig.dispatched_scopes`` run
the same code on NumPy arrays and torch tensors via the ``xp`` namespace
(:mod:`repro.xp`).  A raw ``np.<fn>(...)`` call in one of those scopes
silently works on the NumPy path and breaks -- or worse, silently
round-trips through host memory -- on the GPU path.  Flagged unless the
call is a recognized host-transfer boundary:

* module-level statements (constant tables are built on the host once);
* members in ``numpy_member_allowlist`` (exception types, dtype and index
  plumbing -- not numerical compute);
* ``np.asarray(..., dtype=bool/int)`` -- host mask/index staging; float
  compute is the bit-identity risk, index plumbing is not;
* any numpy call that is lexically an argument of an ``<xp>.asarray(...)``
  transfer (host-side assembly being shipped to the device);
* values assigned to a ``*_np`` staging name (the repository's documented
  host-staging idiom: ``tx_np = np.asarray(...); xp.asarray(tx_np)``).

Anything else needs an explicit ``# repro-lint: disable=RPL001`` stating
why that line is genuinely host-side.

A configured qualname that names no function or class in its file is
reported too: a renamed or moved compute boundary must not silently drop
out of the rule's scope.
"""

from __future__ import annotations

import ast

from ..base import Rule, RuleContext, dotted_name, numpy_aliases, numpy_from_imports, register_rule

#: Non-float dtypes acceptable for host-side staging via ``np.asarray``.
_STAGING_DTYPES = {"bool", "int"}


@register_rule
class XpDispatchRule(Rule):
    code = "RPL001"
    name = "xp-dispatch"
    description = (
        "no raw numpy numerical calls inside array-API-dispatched scopes "
        "except at host-transfer boundaries"
    )

    @classmethod
    def applies(cls, ctx: RuleContext) -> bool:
        return ctx.config.dispatched_scope(ctx.logical_path) is not None

    def run(self):
        self._scope = self.ctx.config.dispatched_scope(self.ctx.logical_path)
        self._aliases = numpy_aliases(self.ctx.tree)
        self._from_imports = numpy_from_imports(self.ctx.tree)
        self._qualname: list[str] = []
        self._defined: set[str] = set()
        self._transfer_args: set[int] = self._collect_transfer_args()
        self.visit(self.ctx.tree)
        if self._scope != "*":
            for target in self._scope:
                if target not in self._defined:
                    self.report(
                        self.ctx.tree,
                        f"dispatched scope `{target}` names no function or "
                        "class in this file; update `dispatched_scopes` to "
                        "the renamed or moved compute boundary",
                    )
        return self.diagnostics

    # -- scope bookkeeping ---------------------------------------------
    def _in_scope(self) -> bool:
        if not self._qualname:
            return False  # module level: host-side constant tables
        if self._scope == "*":
            return True
        qual = ".".join(self._qualname)
        return any(
            qual == target or qual.startswith(f"{target}.")
            for target in self._scope
        )

    def _visit_definition(self, node):
        self._qualname.append(node.name)
        self._defined.add(".".join(self._qualname))
        self.generic_visit(node)
        self._qualname.pop()

    visit_ClassDef = _visit_definition
    visit_FunctionDef = _visit_definition
    visit_AsyncFunctionDef = _visit_definition

    # -- exemptions ----------------------------------------------------
    def _collect_transfer_args(self) -> set:
        """ids of nodes inside ``<xp>.asarray(...)`` argument lists."""
        inside: set[int] = set()
        for node in ast.walk(self.ctx.tree):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
                continue
            if node.func.attr != "asarray":
                continue
            root = node.func.value
            if isinstance(root, ast.Name) and root.id in self._aliases:
                continue  # np.asarray itself is not a device transfer
            for arg in list(node.args) + [kw.value for kw in node.keywords]:
                for sub in ast.walk(arg):
                    inside.add(id(sub))
        return inside

    def _numpy_member(self, func: ast.AST):
        """Member path (``"stack"``, ``"linalg.svd"``) if ``func`` resolves
        into the numpy package, else ``None``."""
        dotted = dotted_name(func)
        if dotted is None:
            return None
        head, _, rest = dotted.partition(".")
        if head in self._aliases and rest:
            return rest
        if head in self._from_imports:
            member = self._from_imports[head]
            return f"{member}.{rest}" if rest else member
        return None

    def _is_staging_asarray(self, node: ast.Call) -> bool:
        for kw in node.keywords:
            if kw.arg == "dtype":
                name = dotted_name(kw.value)
                return name in _STAGING_DTYPES
        return False

    def visit_Assign(self, node: ast.Assign):
        suffix = self.ctx.config.host_staging_suffix
        if (
            len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name)
            and node.targets[0].id.endswith(suffix)
        ):
            return  # declared host staging buffer; don't descend
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call):
        member = self._numpy_member(node.func)
        if member is None or not self._in_scope():
            self.generic_visit(node)
            return
        if member in self.ctx.config.numpy_member_allowlist:
            self.generic_visit(node)
            return
        if id(node) in self._transfer_args:
            self.generic_visit(node)
            return
        if member == "asarray" and self._is_staging_asarray(node):
            self.generic_visit(node)
            return
        self.report(
            node,
            f"raw numpy call `{dotted_name(node.func)}` inside an "
            "array-API-dispatched scope; route it through the active "
            "namespace (`xp`), stage it on the host via `xp.asarray(...)` "
            f"or a `*{self.ctx.config.host_staging_suffix}` variable, or "
            "suppress with a reason if this is a host boundary",
        )
        self.generic_visit(node)
