"""ctxflow: context-driven workflow configuration.

Workflows are graphs of application elements whose attributes may be
constrained by metadata flows: pending copies from other elements, catalog
terminals, or command-line arguments. Context documents contributed by
different groups attach those constraints by matching element descriptions;
reduction satisfies the flows one arrow at a time, recording why every final
parameter has the value it does.
"""

from .emit import emit_dag, emit_macro, emit_manifest, emit_provenance, emit_shell
from .errors import (
    AmbiguousAliasError,
    CheckFailedError,
    CtxflowError,
    CycleError,
    DependencyCycleError,
    DuplicateElementError,
    HandlerError,
    KvSourceError,
    MacroSyntaxError,
    MissingArgError,
    MissingAttributeError,
    NotReducedError,
    UnclosedBlockError,
    UnknownElementError,
    UnknownHandlerError,
    UnresolvedAliasError,
    UnresolvedSourceError,
)
from .framework import (
    DispatchMessage,
    DispatchTrace,
    HandlerContext,
    JobRecord,
    builtin_handlers,
    dependency_order,
    run_framework,
    run_pregroup,
)
from .linker import Linker
from .macro import (
    AddDep,
    AddDependencyPattern,
    Attach,
    Check,
    ContextBlockAst,
    ContextDocumentAst,
    Define,
    FrameworkDefine,
    FrameworkRun,
    KvSource,
    NamespaceAdd,
    Oncall,
    parse_context,
    parse_kv_file,
    parse_kv_text,
    parse_workflow,
    serialize,
)
from .model import (
    Description,
    FlowRef,
    HeaderPattern,
    ReductionEvent,
    WorkflowElement,
)
from .reduction import check_acyclic, eval_checks, read_attribute, reduce_all

__version__ = "0.1.0"

__all__ = [
    "AddDep",
    "AddDependencyPattern",
    "AmbiguousAliasError",
    "Attach",
    "Check",
    "CheckFailedError",
    "ContextBlockAst",
    "ContextDocumentAst",
    "CtxflowError",
    "CycleError",
    "Define",
    "DependencyCycleError",
    "Description",
    "DispatchMessage",
    "DispatchTrace",
    "DuplicateElementError",
    "FlowRef",
    "FrameworkDefine",
    "FrameworkRun",
    "HandlerContext",
    "HandlerError",
    "HeaderPattern",
    "JobRecord",
    "KvSource",
    "KvSourceError",
    "Linker",
    "MacroSyntaxError",
    "MissingArgError",
    "MissingAttributeError",
    "NamespaceAdd",
    "NotReducedError",
    "Oncall",
    "ReductionEvent",
    "UnclosedBlockError",
    "UnknownElementError",
    "UnknownHandlerError",
    "UnresolvedAliasError",
    "UnresolvedSourceError",
    "WorkflowElement",
    "builtin_handlers",
    "check_acyclic",
    "dependency_order",
    "emit_dag",
    "emit_macro",
    "emit_manifest",
    "emit_provenance",
    "emit_shell",
    "eval_checks",
    "parse_context",
    "parse_kv_file",
    "parse_kv_text",
    "parse_workflow",
    "read_attribute",
    "reduce_all",
    "run_framework",
    "run_pregroup",
    "serialize",
]
