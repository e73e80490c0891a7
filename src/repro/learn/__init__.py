"""Mini scikit-learn: featurizers, linear models, trees, ensembles.

A from-scratch stand-in for the scikit-learn subset that the paper's
trained pipelines use (substitutions: benchmarks/SCORECARD.md).
"""

from repro.learn.base import BaseEstimator, sigmoid, softmax
from repro.learn.ensemble import (
    AdaBoostRegressor,
    GradientBoostingClassifier,
    GradientBoostingRegressor,
    RandomForestClassifier,
    RandomForestRegressor,
)
from repro.learn.linear import Lasso, LinearRegression, LogisticRegression, Ridge
from repro.learn.metrics import (
    accuracy_score,
    f1_score,
    log_loss,
    precision_score,
    recall_score,
    roc_auc_score,
)
from repro.learn.model_selection import KFold, StratifiedKFold, train_test_split
from repro.learn.pipeline import ColumnTransformer, Pipeline, make_standard_pipeline
from repro.learn.preprocessing import (
    Binarizer,
    SimpleImputer,
    LabelEncoder,
    MinMaxScaler,
    Normalizer,
    OneHotEncoder,
    StandardScaler,
)
from repro.learn.tree import DecisionTreeClassifier, DecisionTreeRegressor, Tree

__all__ = [
    "AdaBoostRegressor", "BaseEstimator", "Binarizer", "ColumnTransformer", "DecisionTreeClassifier",
    "DecisionTreeRegressor", "GradientBoostingClassifier",
    "GradientBoostingRegressor", "KFold", "LabelEncoder", "Lasso",
    "LinearRegression", "LogisticRegression", "MinMaxScaler", "Normalizer",
    "OneHotEncoder", "Pipeline", "RandomForestClassifier", "RandomForestRegressor", "Ridge",
    "SimpleImputer", "StandardScaler", "StratifiedKFold", "Tree", "accuracy_score",
    "f1_score", "log_loss", "make_standard_pipeline", "precision_score",
    "recall_score", "roc_auc_score", "sigmoid", "softmax", "train_test_split",
]
