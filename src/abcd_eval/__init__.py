"""Answer-based claim decomposition and fine-grained QA self-evaluation.

The pipeline turns a question into tagged true/false claim templates,
fills the tags with generated answers, verifies every instantiated claim
with a "True or False:" prompt, and scores each question by the proportion
of true claims (the leading entity-type claim excluded). Aggregation
compares scores on questions labeled correct against those labeled
incorrect with Welch's t-test.

Typical library use::

    from abcd_eval import (
        decompose, generate_answers, verify_all, score_true,
        load_prompt_pack, default_pack_path, ScriptedProvider,
    )

The ``abcd-eval`` console script exposes the same pipeline as subcommands.
The package exports the names the README's Library section and ``demos/``
use; every other public name imports from its own module, for example
``from abcd_eval.stats import TTestResult``.
"""

from .answers import generate_answers
from .datasets import (
    RawQuizbowlRecord,
    SplitSpec,
    build_obscureqa,
    clean_text,
    convert_clue_to_question,
)
from .decompose import decompose, default_pack_path, load_prompt_pack
from .model import Dataset, Question, Verdict
from .providers import (
    CachingProvider,
    CompletionRequest,
    LiveProvider,
    ProviderError,
    ReplayProvider,
    ResponseCache,
    ScriptRule,
    ScriptedProvider,
    cache_key,
)
from .scoring import score_true
from .stats import welch_t_test
from .template import instantiate
from .verify import (
    MatchMode,
    VerdictParseConfig,
    normalize,
    parse_verdict,
    verify_all,
)

__version__ = "0.1.0"
