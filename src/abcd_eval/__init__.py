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
"""

from .answers import (
    AnswerParseError,
    build_answer_prompt,
    clean_answer,
    generate_answers,
    parse_answers,
)
from .datasets import (
    DatasetLoadError,
    LoadReport,
    ObscureQABuild,
    QuestionFormat,
    RawQuizbowlRecord,
    SampleTooLargeError,
    SplitSpec,
    build_obscureqa,
    clean_text,
    convert_clue_to_question,
    load_questions,
    sample_questions,
    seeded_shuffle,
    split_sizes,
    transliterate,
)
from .decompose import (
    DecompositionMarkers,
    DecompositionParseError,
    ParsedDecomposition,
    ParseWarning,
    ParseWarningKind,
    PromptPack,
    PromptPackError,
    build_decomposition_prompt,
    decompose,
    default_pack_path,
    load_prompt_pack,
    parse_decomposition,
)
from .model import (
    ANSWER_TAG,
    AggregateReport,
    AnswerAssignment,
    ClaimSet,
    ClaimTemplate,
    Dataset,
    GroundTruthComparison,
    Question,
    QuestionEvaluation,
    Tag,
    VerificationResult,
    Verdict,
    extract_tags,
    validate_claim_set,
)
from .providers import (
    CachingProvider,
    CompletionRequest,
    CompletionResponse,
    CountingProvider,
    FinishReason,
    LiveProvider,
    Provider,
    ProviderError,
    ProviderErrorKind,
    ReplayProvider,
    ResponseCache,
    ScriptRule,
    ScriptedProvider,
    cache_key,
)
from .scoring import aggregate, ground_truth_comparison, score_true
from .stats import (
    DegenerateInputError,
    TTestResult,
    regularized_incomplete_beta,
    two_sided_p_value,
    welch_t_test,
)
from .template import (
    InstantiationError,
    InstantiationErrorKind,
    instantiate,
    instantiate_with_override,
)
from .verify import (
    BaselineResult,
    MatchMode,
    VerdictParseConfig,
    VerificationError,
    baseline_whole_question,
    build_baseline_prompt,
    normalize,
    parse_verdict,
    verify_all,
    verify_claim,
)

__version__ = "0.1.0"
